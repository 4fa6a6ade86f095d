// Congestion feedback (paper §6): NR-Scope runs as a service, streaming
// RAN telemetry over TCP to a sender's congestion controller. The
// feedback arrives faster than half an RTT — it shortcuts the full round
// trip — so the sender can match its rate to the UE's actual radio
// allocation instead of waiting for end-to-end loss or delay signals.
//
// This example wires three parties in one process:
//   - a simulated cell with one video UE plus a competing bulk UE,
//   - NR-Scope publishing per-DCI telemetry through the distribution
//     bus (internal/bus) onto a local TCP port — each subscriber owns a
//     bounded DropOldest queue, so a stalled receiver can never hold
//     back the decode loop,
//   - a toy sender subscribing to the feed and adapting its target rate
//     to the UE's observed allocation + fair-share spare capacity.
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"nrscope"
	"nrscope/internal/bus"
	"nrscope/internal/telemetry"
)

func main() {
	tb, err := nrscope.NewTestbed(nrscope.AmarisoftPreset, 17)
	if err != nil {
		panic(err)
	}
	target := tb.AttachUE(nrscope.UEProfile{Mobility: "static"})
	competitor := tb.AttachUE(nrscope.UEProfile{Mobility: "static", SessionSeconds: 1.0})
	fmt.Printf("target UE 0x%04x, competitor 0x%04x departs after 1 s\n", target, competitor)

	// Telemetry leaves the scope through the bus; the TCP server gives
	// every subscriber its own queue (live feedback wants freshness, so
	// the per-connection policy is DropOldest, and a record is written
	// as soon as the connection's previous write is done).
	feed := nrscope.NewBus()
	defer feed.Close()
	server, err := bus.NewTCPServer(feed, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer server.Close()
	fmt.Printf("NR-Scope telemetry service on %s\n", server.Addr())

	// The application-server side: subscribe and adapt the send rate.
	var targetRate atomic.Int64
	client, err := telemetry.Dial(server.Addr())
	if err != nil {
		panic(err)
	}
	defer client.Close()
	go func() {
		window := 0.0
		const alpha = 0.05
		for {
			rec, err := client.Next()
			if err != nil {
				return
			}
			if rec.RNTI != 0 && rec.Downlink && !rec.IsRetx && !rec.Common {
				// EWMA of the per-DCI allocation translated to a rate.
				window = (1-alpha)*window + alpha*float64(rec.TBS)
				targetRate.Store(int64(window))
			}
		}
	}()

	tti := tb.TTI()
	reportEvery := int(200 * time.Millisecond / tti)
	tb.RunFor(2*time.Second, func(res *nrscope.SlotResult) {
		for _, rec := range res.Records {
			if rec.RNTI == target {
				_ = feed.Publish(rec)
			}
		}
		if res.SlotIdx%reportEvery == 0 && res.SlotIdx > 0 {
			observed := tb.Scope.Bitrate(target, true, res.SlotIdx)
			ewma := targetRate.Load()
			fmt.Printf("t=%4.1fs  sender's adapted rate signal: %6d bits/TB  (scope DL rate %5.2f Mbps)\n",
				float64(res.SlotIdx)*tti.Seconds(), ewma, observed/1e6)
		}
	})
	fmt.Println("after the competitor departs, the target's allocation grows —")
	fmt.Println("the sender learns it from the RAN feed, not from end-to-end probing.")
}
