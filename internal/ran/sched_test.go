package ran

import (
	"testing"

	"nrscope/internal/sched"
)

// validating wraps a scheduler and holds every allocation set it returns
// to sched.Validate against the region the gNB offered.
type validating struct {
	sched.Scheduler
	t         *testing.T
	where     string
	allocs    int
	maxPerTTI int
}

func (v *validating) Schedule(slot int, reqs []sched.Request, region sched.Region) []sched.Allocation {
	out := v.Scheduler.Schedule(slot, reqs, region)
	if err := sched.Validate(out, region); err != nil {
		v.t.Errorf("%s slot %d: %v (region %+v, allocations %+v)", v.where, slot, err, region, out)
	}
	v.allocs += len(out)
	v.maxPerTTI = max(v.maxPerTTI, len(out))
	return out
}

// TestSchedulersValidInGNB runs the round-robin and proportional-fair
// schedulers inside the gNB, downlink and uplink, over 2 000 slots of an
// FDD and a TDD preset with 12 UEs, and checks every allocation set
// Schedule returns with sched.Validate: inside the offered region, no
// overlap, no empty allocation. Both directions must allocate, and the
// uplink must pack several UEs into one TTI, so the overlap check bites.
func TestSchedulersValidInGNB(t *testing.T) {
	const slots = 2000
	for _, cfg := range []CellConfig{TMobileCell(1), AmarisoftCell()} {
		for _, newSched := range []func() sched.Scheduler{
			func() sched.Scheduler { return sched.NewRoundRobin() },
			func() sched.Scheduler { return sched.NewProportionalFair() },
		} {
			g, err := NewGNB(cfg, slots)
			if err != nil {
				t.Fatal(err)
			}
			where := cfg.Name + " " + newSched().Name()
			dl := &validating{Scheduler: newSched(), t: t, where: where + " downlink"}
			ul := &validating{Scheduler: newSched(), t: t, where: where + " uplink"}
			g.UseSchedulers(dl, ul)
			for i := 0; i < 12; i++ {
				g.AddUE(nil, -1)
			}
			for i := 0; i < slots; i++ {
				g.Step()
			}
			if dl.allocs == 0 || ul.allocs == 0 || ul.maxPerTTI < 2 {
				t.Errorf("%s: %d downlink and %d uplink allocations, at most %d uplink ones in a TTI",
					where, dl.allocs, ul.allocs, ul.maxPerTTI)
			}
		}
	}
}
