package lake

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime/debug"
	"sync"

	"nrscope/internal/history"
)

// On-disk segment layout:
//
//	block*  each: magic "LKBK" u32 | payloadLen u32 | crc32(payload) u32 | payload
//	footer  same framing with magic "LKFT"; payload = block index
//	trailer footerOff u64 LE | magic "LKS1"
//
// A sealed segment is located by its trailer; an unsealed one (writer
// crashed mid-spill) is recovered by a sequential CRC-verified scan
// that truncates the first torn block and re-seals.

const (
	blockMagic  = 0x4c4b424b // "LKBK"
	footerMagic = 0x4c4b4654 // "LKFT"
	sealMagic   = 0x4c4b5331 // "LKS1"
	frameHdr    = 12         // magic + payloadLen + crc
	trailerLen  = 12         // footerOff + sealMagic
	maxPayload  = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// blockRef locates one block inside a segment and carries enough of
// its header to answer index queries without touching disk.
type blockRef struct {
	seg        *segment
	off        int64
	plen       int
	kind       uint8
	cell, rnti uint16
	minIdx     int64
	maxIdx     int64
	count      int
}

// segment is one on-disk segment file. Blocks are written with WriteAt
// and read from data, a read-only shared mapping of the file that
// covers every published block (on platforms without mmap, data stays
// nil and blocks are read with ReadAt).
type segment struct {
	path   string
	name   string // manifest-relative name
	seq    uint64
	cell   uint16
	f      *os.File
	data   []byte
	size   int64
	sealed bool
	// The newest bin index and anomaly time (ms) the published index
	// holds in this segment, for retention; indexed once it holds any.
	maxIdx, maxMs int64
	indexed       bool
}

// appendBlock frames and writes one encoded payload, returning its
// offset.
func (s *segment) appendBlock(payload []byte) (int64, error) {
	off := s.size
	var hdr [frameHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:], blockMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(payload, crcTable))
	if _, err := s.f.WriteAt(hdr[:], off); err != nil {
		return 0, err
	}
	if _, err := s.f.WriteAt(payload, off+frameHdr); err != nil {
		return 0, err
	}
	s.size = off + frameHdr + int64(len(payload))
	return off, nil
}

// readBlock reads the block at off with ReadAt and CRC-verifies it,
// returning its payload. Open uses it, before the segment is mapped.
func (s *segment) readBlock(off int64, plen int) ([]byte, error) {
	buf := make([]byte, frameHdr+plen)
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return s.checkFrame(buf, off)
}

// checkFrame verifies the framing and CRC of the block read from off
// into buf, returning its payload.
func (s *segment) checkFrame(buf []byte, off int64) ([]byte, error) {
	if m := binary.LittleEndian.Uint32(buf[0:]); m != blockMagic && m != footerMagic {
		return nil, fmt.Errorf("lake: bad block magic %#x at %s+%d", m, s.name, off)
	}
	if got := binary.LittleEndian.Uint32(buf[4:]); int(got) != len(buf)-frameHdr {
		return nil, fmt.Errorf("lake: block length mismatch at %s+%d", s.name, off)
	}
	payload := buf[frameHdr:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[8:]) {
		return nil, fmt.Errorf("lake: block CRC mismatch at %s+%d", s.name, off)
	}
	return payload, nil
}

// blockReader decodes series blocks for one read, reusing its buffers
// from block to block and, through readers, from read to read.
type blockReader struct {
	cols [][]byte
	blockRows
	refs   []blockRef // ScanUEs' window refs
	queued []entry    // ReadSeries' queued entries, visited after qmu is released
}

// readers holds blockReaders between reads, so a read allocates none
// of its buffers.
var readers = sync.Pool{New: func() any { return new(blockReader) }}

// read decodes the columns cols selects of every series block refs
// point at, in order, and calls visit after each. Every block's frame,
// CRC and header are checked before it is decoded. A bad block is
// counted on lake_crc_errors_total and skipped, and so is one whose
// mapped bytes fault: a file truncated or unreadable underneath its
// mapping raises SIGBUS, which runs as a panic here and is recovered
// per block. The caller holds l.mu (either mode) or is the writer, so
// no mapping is replaced or removed during the read.
func (br *blockReader) read(refs []blockRef, cols uint16, visit func(r blockRef)) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for i := range refs {
		if br.decode(&refs[i], cols) != nil {
			met.crcErrors.Inc()
			continue
		}
		visit(refs[i])
	}
}

func (br *blockReader) decode(r *blockRef, cols uint16) (err error) {
	defer recoverFault(&err)
	payload, err := r.seg.block(r.off, r.plen)
	if err != nil {
		return err
	}
	h, err := parseBlockPayload(payload, br.cols)
	if err != nil {
		return err
	}
	br.cols = h.cols
	return decodeSeriesBlock(h, cols, &br.blockRows)
}

// errFault stands for a block whose mapped bytes could not be read.
var errFault = errors.New("lake: fault reading a mapped block")

// recoverFault, deferred by a block check or decode, turns a fault
// reading mapped memory into errFault in *err. Any other panic goes on.
func recoverFault(err *error) {
	if p := recover(); p != nil {
		if _, ok := p.(interface{ Addr() uintptr }); !ok {
			panic(p)
		}
		*err = errFault
	}
}

// cmpRefs orders refs by segment sequence and offset: the order their
// blocks were written in. Reads add rows in this order, because sums
// of float fields depend on it; the series index keeps refs by first
// bin, which compacted and reopened segments can put out of write order.
func cmpRefs(a, b blockRef) int {
	if a.seg != b.seg {
		return cmp.Compare(a.seg.seq, b.seg.seq)
	}
	return cmp.Compare(a.off, b.off)
}

// block returns the frame- and CRC-checked payload of the block at
// off. Its bytes may be mapped: call it only under recoverFault.
func (s *segment) block(off int64, plen int) ([]byte, error) {
	buf, err := s.frame(off, frameHdr+plen)
	if err != nil {
		return nil, err
	}
	return s.checkFrame(buf, off)
}

// seal writes the footer index + trailer and fsyncs. The segment stays
// readable through its mapping.
func (s *segment) seal(refs []blockRef) error {
	if s.sealed {
		return nil
	}
	payload := appendFooter(nil, refs)
	footerOff := s.size
	var hdr [frameHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:], footerMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(payload, crcTable))
	if _, err := s.f.WriteAt(hdr[:], footerOff); err != nil {
		return err
	}
	if _, err := s.f.WriteAt(payload, footerOff+frameHdr); err != nil {
		return err
	}
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:], uint64(footerOff))
	binary.LittleEndian.PutUint32(tr[8:], sealMagic)
	if _, err := s.f.WriteAt(tr[:], footerOff+frameHdr+int64(len(payload))); err != nil {
		return err
	}
	s.size = footerOff + frameHdr + int64(len(payload)) + trailerLen
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.sealed = true
	return nil
}

// appendFooter encodes the block index.
func appendFooter(buf []byte, refs []blockRef) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(refs)))
	for _, r := range refs {
		buf = binary.AppendUvarint(buf, uint64(r.off))
		buf = binary.AppendUvarint(buf, uint64(r.plen))
		buf = append(buf, r.kind)
		buf = binary.AppendUvarint(buf, uint64(r.cell))
		buf = binary.AppendUvarint(buf, uint64(r.rnti))
		buf = binary.AppendVarint(buf, r.minIdx)
		buf = binary.AppendVarint(buf, r.maxIdx)
		buf = binary.AppendUvarint(buf, uint64(r.count))
	}
	return buf
}

// parseFooter decodes a footer payload into refs bound to seg.
func parseFooter(seg *segment, p []byte) ([]blockRef, error) {
	n, w := binary.Uvarint(p)
	// A ref takes at least 8 bytes: seven varints and the kind byte.
	if w <= 0 || n > uint64(len(p)-w)/8 {
		return nil, fmt.Errorf("lake: bad footer count in %s", seg.name)
	}
	p = p[w:]
	refs := make([]blockRef, 0, n)
	for i := uint64(0); i < n; i++ {
		var r blockRef
		r.seg = seg
		u := func() uint64 {
			v, m := binary.Uvarint(p)
			if m <= 0 {
				w = -1
				return 0
			}
			p = p[m:]
			return v
		}
		v := func() int64 {
			x, m := binary.Varint(p)
			if m <= 0 {
				w = -1
				return 0
			}
			p = p[m:]
			return x
		}
		r.off = int64(u())
		r.plen = int(u())
		if w < 0 || len(p) == 0 {
			return nil, fmt.Errorf("lake: truncated footer in %s", seg.name)
		}
		r.kind = p[0]
		p = p[1:]
		r.cell = uint16(u())
		r.rnti = uint16(u())
		r.minIdx = v()
		r.maxIdx = v()
		r.count = int(u())
		if w < 0 {
			return nil, fmt.Errorf("lake: truncated footer in %s", seg.name)
		}
		refs = append(refs, r)
	}
	return refs, nil
}

// openSegment opens an existing segment file. Sealed segments load
// their footer index; unsealed ones are scanned, the first torn block
// truncated, and the valid prefix re-sealed (recovered=true).
func openSegment(path, name string, seq uint64, cell uint16) (*segment, []blockRef, bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, false, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, false, err
	}
	seg := &segment{path: path, name: name, seq: seq, cell: cell, f: f, size: st.Size()}

	if refs, ok := seg.loadFooter(); ok {
		seg.sealed = true
		if err := seg.mapAtLeast(seg.size); err != nil {
			f.Close()
			return nil, nil, false, err
		}
		return seg, refs, false, nil
	}

	// No valid trailer: sequential scan + truncate + re-seal.
	refs, validEnd := seg.scan()
	if validEnd < seg.size {
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, nil, false, err
		}
	}
	seg.size = validEnd
	if err := seg.seal(refs); err != nil {
		f.Close()
		return nil, nil, false, err
	}
	if err := seg.mapAtLeast(seg.size); err != nil {
		f.Close()
		return nil, nil, false, err
	}
	return seg, refs, true, nil
}

// loadFooter tries the sealed-segment fast path.
func (s *segment) loadFooter() ([]blockRef, bool) {
	if s.size < trailerLen {
		return nil, false
	}
	var tr [trailerLen]byte
	if _, err := s.f.ReadAt(tr[:], s.size-trailerLen); err != nil {
		return nil, false
	}
	if binary.LittleEndian.Uint32(tr[8:]) != sealMagic {
		return nil, false
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[0:]))
	plen := s.size - trailerLen - footerOff - frameHdr
	if footerOff < 0 || plen < 0 || plen > maxPayload {
		return nil, false
	}
	payload, err := s.readBlock(footerOff, int(plen))
	if err != nil {
		return nil, false
	}
	refs, err := parseFooter(s, payload)
	if err != nil {
		return nil, false
	}
	return refs, true
}

// scan walks blocks from the start, stopping at the first torn or
// CRC-failing block. Returns the refs of valid blocks and the byte
// offset of the valid prefix's end.
func (s *segment) scan() ([]blockRef, int64) {
	var refs []blockRef
	off := int64(0)
	var hdr [frameHdr]byte
	for off+frameHdr <= s.size {
		if _, err := s.f.ReadAt(hdr[:], off); err != nil {
			break
		}
		magic := binary.LittleEndian.Uint32(hdr[0:])
		if magic != blockMagic {
			break // footer of a prior seal, garbage, or torn write
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[4:]))
		if plen > maxPayload || off+frameHdr+plen > s.size {
			break
		}
		payload, err := s.readBlock(off, int(plen))
		if err != nil {
			met.crcErrors.Inc()
			break
		}
		r, err := refFromPayload(s, off, payload)
		if err != nil {
			break
		}
		refs = append(refs, r)
		off += frameHdr + plen
	}
	return refs, off
}

// refFromPayload builds a blockRef by decoding just enough of a
// payload: the header and the bin-index bounds.
func refFromPayload(s *segment, off int64, payload []byte) (blockRef, error) {
	h, err := parseBlockPayload(payload, nil)
	if err != nil {
		return blockRef{}, err
	}
	r := blockRef{
		seg: s, off: off, plen: len(payload),
		kind: h.kind, cell: h.cell, rnti: h.rnti, count: h.count,
	}
	var ts []int64 // the block's bin indices, or its anomaly times in ms
	switch {
	case h.kind == kindAnomaly:
		// Anomaly ref bounds are in ms (the AtMs column), mirroring the
		// writer: leaving them zero would make retention read a
		// recovered segment as infinitely old and delete it.
		err = decodeAnomalyBlock(h, func(a history.Anomaly) { ts = append(ts, int64(a.AtMs)) })
	case h.count > 0:
		ts, err = decodeBinIdx(h.cols[0], h.count, nil)
	}
	for i, v := range ts {
		if i == 0 {
			r.minIdx, r.maxIdx = v, v
		}
		r.minIdx, r.maxIdx = min(r.minIdx, v), max(r.maxIdx, v)
	}
	return r, err
}

// createSegment creates a fresh segment file (O_EXCL: names are
// sequence-unique).
func createSegment(path, name string, seq uint64, cell uint16) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return &segment{path: path, name: name, seq: seq, cell: cell, f: f}, nil
}

// close unmaps and closes the segment. The caller holds l.mu's write
// lock, or no reader can reach the segment (the index holds no ref
// into it).
func (s *segment) close() error {
	if s.f == nil {
		return nil
	}
	err := s.unmap()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
