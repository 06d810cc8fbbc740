package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/campaign"
)

// A workload is one request shape run in a closed loop by one client. Its
// specs are a pure function of the library seed, and the library seeds are a
// pure function of the workload seed (see seedGen), so the workload seed is
// the only argument that picks inputs.
type workload struct {
	name string
	// fleet sends the request to a fleet coordinator fronting two workers
	// instead of to a standalone campaign server.
	fleet bool
	// fixedSeed repeats one library seed (derived from the workload seed)
	// on every window request instead of drawing a fresh one.
	fixedSeed bool
	// family names the golden.json entry holding the check-seed hashes.
	family string
	// heapAfter is the window request after which live_heap_mb is read:
	// about a third of what the default window completes, so a faster
	// program does not read a larger heap only because it served more
	// requests.
	heapAfter int
	// specs returns one request's job specs for a library seed.
	specs func(seed int64) []campaign.Spec
}

func e5Specs(seed int64) []campaign.Spec {
	return []campaign.Spec{
		{Bus: "addr", Seed: seed, Engine: "batch"},
		{Bus: "data", Seed: seed, Engine: "batch"},
	}
}

var workloads = []workload{
	{name: "e5", family: "e5", heapAfter: 8, specs: e5Specs},
	{name: "widebus64", family: "widebus64", heapAfter: 3, specs: func(seed int64) []campaign.Spec {
		return []campaign.Spec{{Target: "widebus64", Bus: "bus", Seed: seed, Engine: "batch"}}
	}},
	{name: "e5-infield", family: "e5-infield", fixedSeed: true, heapAfter: 12, specs: func(seed int64) []campaign.Spec {
		// Zero slice_cycles and slices select the finest manifest: one
		// session per slice.
		return []campaign.Spec{{Bus: "addr", Type: campaign.TypeInfield, Seed: seed, Engine: "batch"}}
	}},
	{name: "e5-fleet", family: "e5", fleet: true, heapAfter: 3, specs: e5Specs},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// seedGen derives the window's library seeds from the workload seed. Seeds
// start above checkSeedCeiling so no window request aliases the check seed.
type seedGen struct {
	rng   *rand.Rand
	fixed int64 // non-zero: every request uses this seed
}

const checkSeedCeiling = 1 << 20

func newSeedGen(w workload, seed int64) *seedGen {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	g := &seedGen{rng: rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))}
	if w.fixedSeed {
		g.fixed = g.draw()
	}
	return g
}

func (g *seedGen) draw() int64 { return checkSeedCeiling + g.rng.Int63n(1<<40) }

// next returns the library seed of the next window request.
func (g *seedGen) next() int64 {
	if g.fixed != 0 {
		return g.fixed
	}
	return g.draw()
}
