// Command nrscope runs the telemetry tool against a simulated 5G SA
// cell: it acquires MIB/SIB1, tracks UE associations through the RACH,
// decodes every UE's DCIs per TTI, and distributes the telemetry
// through the internal/bus fanout to any number of sinks — JSONL log
// files, TCP subscribers, and a live SSE feed on the observability
// endpoint (the paper's §6 feedback path).
//
// Usage:
//
//	nrscope -cell amarisoft -ues 4 -duration 10s \
//	        -sink jsonl:telemetry.jsonl -sink tcp:127.0.0.1:9900
//	nrscope -metrics 127.0.0.1:9090 -sink sse ...   # SSE feed on /events
//	nrscope -record capture.nrsc -duration 10s      # save the air capture
//	nrscope -replay capture.nrsc -sink jsonl:t.jsonl  # post-process offline
//	nrscope -metrics 127.0.0.1:9090 ...             # /history and /shards query API
//	nrscope -lake ./lake -lake-retention 1h ...     # spill history to disk
//	nrscope -cell amarisoft -fuse-cell mosolab ...  # multi-cell fusion
//	nrscope -shards 4 -cell amarisoft -fuse-cell mosolab ... # four shards
//
// Repeating -fuse-cell monitors additional cells and fuses every cell's
// stream through the §7 aggregator: per-cell load, cross-cell handover
// and carrier-aggregation candidates are reported at exit. The fusion
// aggregator and the /history query API share one bounded store per
// shard — one copy of the bins backs both.
//
// The -sink flag is repeatable; its grammar is
//
//	jsonl:PATH   append JSON lines to PATH (Block policy: lossless,
//	             drained in full on shutdown; -sink-rotate-mb rotates)
//	tcp:ADDR     serve JSONL over TCP on ADDR (per-connection DropOldest
//	             queues: a slow subscriber drops its own records)
//	sse          serve server-sent events on the -metrics mux at /events
//	promrw:URL   push Prometheus remote-write frames to URL
//	influx:URL   push InfluxDB v2 line protocol (?bucket=B required)
//	otlp:URL     push OTLP/HTTP JSON metrics to URL
//
// The pump sinks (promrw, influx, otlp) take ?key=value options on the
// URL — auth, timestamps, batching, frame size — documented under
// pump.FromSpec; with -replay they backfill a recorded capture into the
// remote store. At exit every bus subscription prints a delivery
// summary (delivered / dropped / retries / quarantines).
//
// Whatever the flags, a run is one path (see deployment): every cell's
// captures, simulated or replayed, go through one core.DecodePool, and
// every decoded slot goes to one shard.Supervisor (internal/shard),
// whose workers fold the records into their history partitions — and,
// in multi-cell runs, their fusion aggregators — and are the only
// publishers on the sink bus. -shards N (default 1) partitions the cells
// (the -cell preset plus every -fuse-cell) across N such shards; a
// record whose fold panics is dropped and the shard goes on with its
// partition intact. The supervisor serves the one query API — /history
// and /shards — on the -metrics mux, and its health and history are
// summarised at exit, whatever N is. One shard's lake lives at the -lake
// root, N > 1 shards' under shard-<i>.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nrscope"
	"nrscope/internal/bus"
	"nrscope/internal/capfile"
	"nrscope/internal/history"
	"nrscope/internal/lake"
	"nrscope/internal/obs"
	"nrscope/internal/pump"
	"nrscope/internal/shard"
)

// stringList collects repeated flags (-sink, -fuse-cell).
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// config is what the flags decide.
type config struct {
	cells    []string // -cell followed by every -fuse-cell
	ues      int
	duration time.Duration
	seed     int64
	noVerify bool
	record   string
	replay   string
	sinks    stringList
	rotateMB int64
	metrics  string
	shards   int
	histCfg  history.Config // each shard partition's, but for MaxUEs
	lakeDir  string
	lakeCfg  lake.Config
}

func parseFlags() config {
	var c config
	var fuse stringList
	cell := flag.String("cell", "amarisoft", "cell preset: srsran|mosolab|amarisoft|tmobile1|tmobile2")
	flag.Var(&fuse, "fuse-cell", "additional cell preset to monitor and fuse with -cell (repeatable; enables the multi-cell aggregator)")
	flag.IntVar(&c.ues, "ues", 2, "number of simulated UEs")
	flag.DurationVar(&c.duration, "duration", 5*time.Second, "capture duration")
	flag.Int64Var(&c.seed, "seed", 1, "random seed")
	flag.BoolVar(&c.noVerify, "skip-msg4-verify", false, "skip RRC Setup PDSCH verification of new UEs (paper's shortcut)")
	flag.StringVar(&c.record, "record", "", "save the raw capture stream to this file")
	flag.StringVar(&c.replay, "replay", "", "process a recorded capture file instead of live slots")
	flag.Var(&c.sinks, "sink", "telemetry sink (repeatable): jsonl:PATH | tcp:ADDR | sse | promrw:URL | influx:URL | otlp:URL")
	flag.Int64Var(&c.rotateMB, "sink-rotate-mb", 0, "rotate jsonl sinks after this many MiB (0 = never)")
	flag.StringVar(&c.metrics, "metrics", "", "serve Prometheus /metrics, /debug/vars, /debug/pprof and the /events SSE feed on this address (e.g. 127.0.0.1:9090)")

	flag.IntVar(&c.shards, "shards", 1, "partition the monitored cells across N supervised shards, each keeping a queryable history partition (served under /history and /shards on the -metrics mux)")
	flag.DurationVar(&c.histCfg.BinWidth, "history-bin", 100*time.Millisecond, "history aggregation bin width")
	flag.IntVar(&c.histCfg.Depth, "history-depth", 600, "bins of history retained per UE and per cell")
	flag.IntVar(&c.histCfg.MaxUEs, "history-max-ues", 10000, "UE series cap in the history store (LRU eviction beyond it)")
	flag.DurationVar(&c.histCfg.IdleHorizon, "idle-horizon", 0, "evict UEs idle longer than this from the scope and the history store (0 = slot-count default)")

	flag.StringVar(&c.lakeDir, "lake", "", "spill history bins evicted from RAM into columnar segments under this directory (queries answer across RAM + disk)")
	lakeSegMB := flag.Int64("lake-segment-mb", 8, "seal lake segments at this many MiB")
	flag.DurationVar(&c.lakeCfg.Retention, "lake-retention", 0, "drop lake segments wholly older than this horizon (0 = keep everything)")
	flag.Parse()

	c.cells = append([]string{*cell}, fuse...)
	c.lakeCfg.SegmentBytes = *lakeSegMB << 20
	c.lakeCfg.BinWidth = c.histCfg.BinWidth
	return c
}

func main() {
	if err := new(deployment).run(parseFlags()); err != nil {
		log.Fatal(err)
	}
}

// cell is one monitored cell: a capture source and the scope that
// decodes it. The capfile header is the cell's identity whether the
// source is a simulated testbed or a recorded file.
type cell struct {
	hdr   capfile.Header
	scope *nrscope.Scope
	next  func() (*nrscope.Capture, error) // io.EOF ends the cell's run

	// submitted belongs to the run loop; the rest is written only by the
	// cell's pool handler, which the pool serializes per cell, and read
	// once the pool has closed.
	submitted, decoded, lastSlot int
	records, newUEs              int
	elapsed                      time.Duration
}

// deployment is one run of the tool. Every mode — one cell, -fuse-cell,
// -shards, -replay — is the same steps: build, decode, close (which
// summarises), and the same route for a decoded slot: the pool handler
// ingests it into the supervisor, whose shard workers fold it and
// publish it on the sink bus.
type deployment struct {
	cfg   config
	cells []*cell
	sup   *shard.Supervisor

	metricsSrv *obs.Server
	closeBus   func()
	lakes      []*lake.Lake
	recorder   *capfile.Writer
	recordFile *os.File
	replayFile *os.File
}

// run executes the deployment. Nothing below it exits the process, so a
// failure anywhere — a bad flag, a refused capture, a full disk under
// -record — still drains the sinks and syncs the lake on the way out.
func (d *deployment) run(cfg config) error {
	err := d.build(cfg)
	if err == nil {
		err = d.decode(d.handle)
	}
	if cerr := d.close(err == nil); err == nil {
		err = cerr
	}
	return err
}

func (d *deployment) build(cfg config) (err error) {
	d.cfg = cfg
	if cfg.shards < 1 {
		return fmt.Errorf("nrscope: -shards %d: want at least 1", cfg.shards)
	}
	if (cfg.record != "" || cfg.replay != "") && len(cfg.cells) > 1 {
		return errors.New("nrscope: -record and -replay take a single cell; they cannot be combined with -fuse-cell")
	}
	if cfg.metrics != "" {
		obs.PublishExpvar()
		if d.metricsSrv, err = obs.Serve(cfg.metrics); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "nrscope: observability on http://%s/metrics\n", d.metricsSrv.Addr())
	}
	b, closeBus, err := setupSinks(cfg.sinks, cfg.rotateMB, d.metricsSrv)
	d.closeBus = closeBus
	if err != nil {
		return err
	}
	if err := d.openCells(cfg, []nrscope.Option{
		nrscope.WithVerifyMSG4(!cfg.noVerify),
		nrscope.WithIdleHorizon(cfg.histCfg.IdleHorizon), // 0 keeps the slot-count default
	}); err != nil {
		return err
	}
	return d.supervise(cfg, b)
}

// supervise partitions the cells across the supervisor's shards: each
// shard folds its cells' records into its own history partition (and,
// in multi-cell runs, its own fusion aggregator) and publishes them to
// b (nil without -sink). Decode stays on the pool; the shards consume
// records. The queues are Block so that, behind the pool's blocking
// Submit, a run loses nothing from capture to partition: a slow shard
// or a hung Block sink back-pressures the decode.
func (d *deployment) supervise(cfg config, b *bus.Bus) error {
	if cfg.shards > len(d.cells) {
		fmt.Fprintf(os.Stderr, "nrscope: %d shards for %d cells; %d shards will idle\n",
			cfg.shards, len(d.cells), cfg.shards-len(d.cells))
	}
	histCfg := cfg.histCfg
	// Each partition enforces its own LRU cap: divide the global one.
	histCfg.MaxUEs = max(histCfg.MaxUEs/cfg.shards, 1)
	d.sup = shard.New(shard.Config{
		Shards:  cfg.shards,
		Policy:  shard.Block,
		History: histCfg,
		Fusion:  len(d.cells) > 1,
		Bus:     b,
	})
	// One lake partition per shard: a shard's evicted bins spill under
	// its own subdirectory (the -lake root itself for one shard), and
	// the rollup layer's fan-in sees RAM + disk through each partition's
	// queries.
	if cfg.lakeDir != "" {
		if err := d.sup.AttachLakes(func(i int) (history.Lake, error) {
			dir := cfg.lakeDir
			if cfg.shards > 1 {
				dir = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
			}
			l, err := lake.Open(dir, cfg.lakeCfg)
			if err == nil {
				d.lakes = append(d.lakes, l)
			}
			return l, err
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "nrscope: telemetry lake at %s, one partition per shard\n", cfg.lakeDir)
	}
	for _, c := range d.cells {
		idx, err := d.sup.AddCell(c.hdr.CellID, c.hdr.Mu)
		if err != nil {
			return fmt.Errorf("nrscope: cell %d: %w", c.hdr.CellID, err)
		}
		fmt.Fprintf(os.Stderr, "nrscope: cell %d on shard %d\n", c.hdr.CellID, idx)
	}
	if err := d.sup.Start(); err != nil {
		return err
	}
	if d.metricsSrv != nil {
		d.sup.Mount(d.metricsSrv)
		fmt.Fprintf(os.Stderr, "nrscope: query API on http://%s/history/ues and /shards\n", d.metricsSrv.Addr())
	}
	return nil
}

// openCells creates the capture sources and their scopes: the recorded
// file under -replay (§4's on-demand mode, §7's post-processing), else
// one simulated testbed per cell preset.
func (d *deployment) openCells(cfg config, opts []nrscope.Option) (err error) {
	if cfg.replay != "" {
		if d.replayFile, err = os.Open(cfg.replay); err != nil {
			return err
		}
		r, err := capfile.NewReader(d.replayFile)
		if err != nil {
			return err
		}
		hdr := r.Header()
		fmt.Fprintf(os.Stderr, "nrscope: replaying cell %d (%v, %d PRBs) from %s\n",
			hdr.CellID, hdr.Mu, hdr.NumPRB, cfg.replay)
		d.cells = []*cell{{hdr: hdr, scope: nrscope.New(hdr.CellID, opts...), next: r.Next}}
	} else {
		for i, name := range cfg.cells {
			preset, err := presetByName(name)
			if err != nil {
				return err
			}
			tb, err := nrscope.NewTestbed(preset, cfg.seed+int64(i), opts...)
			if err != nil {
				return err
			}
			for u := 0; u < cfg.ues; u++ {
				tb.AttachUE(nrscope.UEProfile{})
			}
			gc := tb.GNB.Config()
			fmt.Fprintf(os.Stderr, "nrscope: cell %d (%s, %v, %d PRBs)\n", gc.CellID, name, gc.Mu, gc.CarrierPRBs)
			left := int(cfg.duration / tb.TTI())
			d.cells = append(d.cells, &cell{
				hdr:   capfile.Header{CellID: gc.CellID, Mu: gc.Mu, NumPRB: gc.CarrierPRBs},
				scope: tb.Scope,
				next: func() (*nrscope.Capture, error) {
					if left == 0 {
						return nil, io.EOF
					}
					left--
					return tb.StepRaw(), nil
				},
			})
		}
	}
	if cfg.record != "" {
		if d.recordFile, err = os.Create(cfg.record); err != nil {
			return err
		}
		d.recorder, err = capfile.NewWriter(d.recordFile, d.cells[0].hdr)
	}
	return err
}

// decode is the run loop: every cell's captures go through one
// DecodePool, cells decoding concurrently, each cell's slots strictly in
// order, capture synthesis (or file reading) overlapping the decode. The
// worker count is what the machine and the deployment allow, not a knob.
//
// Captures are pulled round-robin in 50 ms steps of cell time, so the
// cells' clocks advance together, until every source is exhausted.
// Submit blocks on a full cell queue: the sources are paced by the
// decode, so nothing is shed. handle is every cell's pool handler (run
// passes d.handle).
func (d *deployment) decode(handle func(*cell, *nrscope.SlotResult)) error {
	pool := nrscope.NewDecodePool(min(len(d.cells), runtime.GOMAXPROCS(0)), 256)
	for _, c := range d.cells {
		if err := pool.AddCell(c.hdr.CellID, c.scope, func(res *nrscope.SlotResult) { handle(c, res) }); err != nil {
			return err
		}
	}
	if err := pool.Start(); err != nil {
		return err
	}
	// Even a failed run drains: what was captured is decoded and
	// delivered before the sinks close.
	defer pool.Close()
	const step = 50 * time.Millisecond
	for live := len(d.cells); live > 0; {
		for _, c := range d.cells {
			for i := int(step / c.hdr.Mu.SlotDuration()); c.next != nil && i > 0; i-- {
				cap, err := c.next()
				if err == io.EOF {
					c.next = nil
					live--
					break
				}
				if err != nil {
					return fmt.Errorf("nrscope: cell %d: %w", c.hdr.CellID, err)
				}
				if d.recorder != nil {
					if err := d.recorder.Append(cap); err != nil {
						return fmt.Errorf("nrscope: -record: %w", err)
					}
				}
				if !pool.Submit(c.hdr.CellID, cap) {
					return fmt.Errorf("nrscope: decode pool refused cell %d slot %d", c.hdr.CellID, cap.SlotIdx)
				}
				c.submitted++
			}
		}
	}
	return nil
}

// handle counts and reports a decoded slot and hands its records and
// spare split to the supervisor.
func (d *deployment) handle(c *cell, res *nrscope.SlotResult) {
	id := c.hdr.CellID
	c.decoded++
	c.lastSlot = res.SlotIdx
	c.records += len(res.Records)
	c.newUEs += len(res.NewUEs)
	c.elapsed += res.Elapsed
	if res.MIBAcquired {
		fmt.Fprintf(os.Stderr, "nrscope: cell %d: MIB acquired at slot %d\n", id, res.SlotIdx)
	}
	if res.SIB1Acquired {
		fmt.Fprintf(os.Stderr, "nrscope: cell %d: SIB1 acquired at slot %d\n", id, res.SlotIdx)
	}
	for _, rnti := range res.NewUEs {
		fmt.Fprintf(os.Stderr, "nrscope: cell %d: new UE c-rnti=0x%04x at slot %d\n", id, rnti, res.SlotIdx)
	}
	// Ingest refuses only an unknown cell or a closed supervisor: every
	// cell was added in supervise, and close stops the pool first.
	for _, rec := range res.Records {
		_ = d.sup.Ingest(id, rec)
	}
	_ = d.sup.IngestSpare(id, res.SlotIdx, res.Spare)
}

// close stops the producers before the consumers — the shard workers
// drain into their partitions and the bus, the bus drains its Block
// sinks — then, everything decoded having reached its store,
// summarises a run that succeeded, and releases the rest. The error is
// the one that loses data: the recording not reaching the disk.
func (d *deployment) close(ok bool) (err error) {
	if d.sup != nil {
		_ = d.sup.Close() // always nil
	}
	if d.closeBus != nil {
		d.closeBus()
	}
	if ok {
		d.summarise()
	}
	for _, lk := range d.lakes {
		closeLake(lk)
	}
	if d.recorder != nil {
		err = errors.Join(d.recorder.Close(), d.recordFile.Close())
	}
	_ = d.replayFile.Close() // only read; a nil *os.File refuses politely
	if d.metricsSrv != nil {
		_ = d.metricsSrv.Close()
	}
	return err
}

func (d *deployment) summarise() {
	var submitted, decoded, records, newUEs int
	var elapsed time.Duration
	for _, c := range d.cells {
		submitted += c.submitted
		decoded += c.decoded
		records += c.records
		newUEs += c.newUEs
		elapsed += c.elapsed
	}
	var mean float64
	if decoded > 0 { // a run shorter than one TTI decodes nothing
		mean = float64(elapsed.Microseconds()) / float64(decoded)
	}
	// decoded < submitted means slots were lost to decode panics
	// (nrscope_decode_pool_slot_panics_total).
	fmt.Fprintf(os.Stderr, "nrscope: decoded %d of %d slots on %d cells: %d records, %d UEs discovered, mean processing %.1f us/slot\n",
		decoded, submitted, len(d.cells), records, newUEs, mean)
	if d.recorder != nil {
		fmt.Fprintf(os.Stderr, "nrscope: recorded %d slots to %s\n", d.recorder.Slots(), d.recordFile.Name())
	}
	for _, c := range d.cells {
		for _, rnti := range c.scope.KnownUEs() {
			fmt.Fprintf(os.Stderr, "  cell %d ue 0x%04x: DL %.2f Mbps, UL %.2f Mbps\n", c.hdr.CellID, rnti,
				c.scope.Bitrate(rnti, true, c.lastSlot)/1e6, c.scope.Bitrate(rnti, false, c.lastSlot)/1e6)
		}
	}
	for _, ps := range d.sup.Health().PerShard {
		fmt.Fprintf(os.Stderr, "nrscope: shard %d (stalled=%t restarts=%d): %d cells, %d ingested, %d applied, %d dropped, %d UEs\n",
			ps.Shard, ps.Stalled, ps.Restarts, ps.Cells, ps.Ingested, ps.Applied, ps.Dropped, ps.TrackedUEs)
	}
	if len(d.cells) > 1 {
		for _, c := range d.cells {
			load, total, recent, _ := d.sup.CellLoad(c.hdr.CellID, d.cfg.duration, time.Second)
			fmt.Fprintf(os.Stderr, "nrscope: cell %d: mean load %.2f Mbps, %d UE sessions retained (%d recent)\n",
				c.hdr.CellID, load/1e6, total, recent)
		}
		hos := d.sup.Handovers()
		for _, ho := range hos {
			fmt.Fprintf(os.Stderr, "nrscope: %s\n", ho)
		}
		if len(hos) == 0 {
			fmt.Fprintln(os.Stderr, "nrscope: no handover candidates detected")
		}
		for _, ca := range d.sup.CarrierAggregation(0.7) {
			fmt.Fprintf(os.Stderr, "nrscope: %s\n", ca)
		}
	}
	// The retained per-cell totals, the busiest UEs, and any anomalies.
	snap := d.sup.Snapshot()
	for _, c := range snap.Cells {
		fmt.Fprintf(os.Stderr, "nrscope: history cell %d: %d UEs, DL %d bits, UL %d bits, %d grants, %d retx in the last %d bins\n",
			c.Cell, c.UEs, c.DLBits, c.ULBits, c.Grants, c.Retx, snap.Depth)
	}
	window := time.Duration(snap.BinMs*float64(snap.Depth)) * time.Millisecond
	if ranks, err := d.sup.TopK("bits", window, 5); err == nil && len(ranks) > 0 {
		fmt.Fprintf(os.Stderr, "nrscope: history top UEs by bits:\n")
		for _, r := range ranks {
			fmt.Fprintf(os.Stderr, "  cell %d ue 0x%04x: %.0f bits\n", r.Cell, r.RNTI, r.Value)
		}
	}
	if anoms := d.sup.Anomalies(); len(anoms) > 0 {
		fmt.Fprintf(os.Stderr, "nrscope: history flagged %d anomalies (last: %s)\n",
			len(anoms), anoms[len(anoms)-1].String())
	}
}

// closeLake drains the lake's spill queue to disk, reports its totals,
// and releases it.
func closeLake(lk *lake.Lake) {
	_ = lk.Sync()
	st := lk.Stats()
	if err := lk.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "nrscope: lake close: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "nrscope: lake: %d segments, %d KiB, %d bins + %d anomalies spilled, %d compactions\n",
		st.Segments, st.Bytes>>10, st.SpilledBins, st.SpilledAnomalies, st.Compactions)
	if st.DroppedEntries > 0 {
		fmt.Fprintf(os.Stderr, "nrscope: lake dropped %d spill entries (queue overflow)\n", st.DroppedEntries)
	}
}

// setupSinks builds the telemetry bus from the -sink specs. Returns a
// nil bus when no sinks are requested. The returned closer drains the
// bus (Block sinks lose zero records), prints each subscription's
// delivery summary, and then shuts the TCP servers; on error it is
// returned too, for the sinks set up before the bad spec.
func setupSinks(specs []string, rotateMB int64, metricsSrv *obs.Server) (*bus.Bus, func(), error) {
	if len(specs) == 0 {
		return nil, func() {}, nil
	}
	b := bus.New()
	var tcpServers []*bus.TCPServer
	var subs []*bus.Subscription
	closer := func() {
		if err := b.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "nrscope: sink drain: %v\n", err)
		}
		stats := make([]bus.SubStats, len(subs))
		for i, sub := range subs {
			stats[i] = sub.Stats()
		}
		for _, line := range formatSinkSummary(stats) {
			fmt.Fprintf(os.Stderr, "nrscope: %s\n", line)
		}
		for _, srv := range tcpServers {
			_ = srv.Close()
		}
	}
	fail := func(err error) (*bus.Bus, func(), error) { return b, closer, err }
	for _, spec := range specs {
		kind, arg, _ := strings.Cut(spec, ":")
		switch kind {
		case "jsonl":
			if arg == "" {
				return fail(fmt.Errorf("nrscope: -sink jsonl needs a path (jsonl:PATH)"))
			}
			sink, err := bus.NewJSONLFileSink(arg, rotateMB<<20)
			if err != nil {
				return fail(err)
			}
			// Block policy: the log is the lossless record of the run.
			sub, err := b.Subscribe("jsonl", bus.Block, sink)
			if err != nil {
				return fail(err)
			}
			subs = append(subs, sub)
		case "tcp":
			if arg == "" {
				return fail(fmt.Errorf("nrscope: -sink tcp needs an address (tcp:ADDR)"))
			}
			srv, err := bus.NewTCPServer(b, arg)
			if err != nil {
				return fail(err)
			}
			tcpServers = append(tcpServers, srv)
			fmt.Fprintf(os.Stderr, "nrscope: streaming telemetry on %s\n", srv.Addr())
		case "sse":
			if metricsSrv == nil {
				return fail(fmt.Errorf("nrscope: -sink sse needs the -metrics endpoint (it serves /events on that mux)"))
			}
			metricsSrv.Handle("/events", bus.SSEHandler(b))
			fmt.Fprintf(os.Stderr, "nrscope: SSE telemetry on http://%s/events\n", metricsSrv.Addr())
		case "promrw", "influx", "otlp":
			snk, tun, err := pump.FromSpec(kind, arg)
			if err != nil {
				return fail(err)
			}
			// Live pumps default to DropOldest (freshness over
			// completeness towards a remote store); ?block=true opts
			// into lossless. Retry/backoff/quarantine ride on the bus
			// runner defaults, and the subscription's delivered and
			// dropped counters are the pump's ledger.
			policy := bus.DropOldest
			if tun.Block {
				policy = bus.Block
			}
			sub, err := b.Subscribe(snk.Name(), policy, snk,
				bus.WithQueueSize(tun.Queue),
				bus.WithBatch(tun.Batch, tun.Flush))
			if err != nil {
				_ = snk.Close()
				return fail(err)
			}
			subs = append(subs, sub)
			fmt.Fprintf(os.Stderr, "nrscope: pumping telemetry to %s (%s, %s)\n", snk.URL(), kind, policy)
		default:
			return fail(fmt.Errorf("nrscope: unknown sink %q (want jsonl:PATH, tcp:ADDR, sse, promrw:URL, influx:URL or otlp:URL)", spec))
		}
	}
	return b, closer, nil
}

// formatSinkSummary renders the end-of-run delivery ledger, one line
// per bus subscription. Zero-valued failure columns are elided so the
// healthy case stays short.
func formatSinkSummary(stats []bus.SubStats) []string {
	lines := make([]string, 0, len(stats))
	for _, st := range stats {
		line := fmt.Sprintf("sink %s: %d delivered, %d dropped", st.Name, st.Delivered, st.Dropped)
		if st.Rejected > 0 {
			line += fmt.Sprintf(", %d rejected", st.Rejected)
		}
		if st.Retries > 0 {
			line += fmt.Sprintf(", %d retries", st.Retries)
		}
		if st.Failures > 0 {
			line += fmt.Sprintf(", %d failures", st.Failures)
		}
		if st.Quarantines > 0 {
			line += fmt.Sprintf(", %d quarantines", st.Quarantines)
		}
		lines = append(lines, line)
	}
	return lines
}

func presetByName(name string) (nrscope.Preset, error) {
	switch name {
	case "srsran":
		return nrscope.SrsRANPreset, nil
	case "mosolab":
		return nrscope.MosolabPreset, nil
	case "amarisoft":
		return nrscope.AmarisoftPreset, nil
	case "tmobile1":
		return nrscope.TMobile1Preset, nil
	case "tmobile2":
		return nrscope.TMobile2Preset, nil
	default:
		return 0, fmt.Errorf("unknown cell %q", name)
	}
}
