package stamp

import (
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// TestGenInstanceIndependentOfReusedBuffers drives genInstance through every
// class of every profile with one shared genScratch, so each instance is
// built in buffers still holding a differently shaped predecessor, and
// checks each against the same instance built from fresh scratch with the
// same RNG and private-stripe state. Buffer reuse must be invisible in the
// generated ops.
func TestGenInstanceIndependentOfReusedBuffers(t *testing.T) {
	var shared genScratch
	priv := privateBase(2)
	rng := sim.NewRNG(11)
	privSeq := 0
	for round := 0; round < 3; round++ {
		for _, p := range All() {
			for _, cl := range p.Classes() {
				refRNG, refSeq := *rng, privSeq
				got := genInstance(cl, rng, priv, &privSeq, &shared)
				want := genInstance(cl, &refRNG, priv, &refSeq, &genScratch{})
				if got.StaticID != want.StaticID || got.ThinkCycles != want.ThinkCycles ||
					!slices.Equal(got.Ops, want.Ops) {
					t.Fatalf("%s class %d round %d: reused-buffer instance differs from fresh build:\n got %v\nwant %v",
						p.Name(), cl.StaticID, round, got.Ops, want.Ops)
				}
				if *rng != refRNG || privSeq != refSeq {
					t.Fatalf("%s class %d: reused buffers changed RNG or private-stripe consumption", p.Name(), cl.StaticID)
				}
			}
		}
	}
}

// TestNextOpsValidUntilNextCall pins the machine.Program lifetime rule for
// STAMP programs: consecutive Next calls on one program yield, instance by
// instance, the op sequences of a fresh program advanced to the same point
// — provided each is read before the following Next — and they share one
// ops buffer, so an instance kept past the next call must be cloned.
func TestNextOpsValidUntilNextCall(t *testing.T) {
	for _, p := range All() {
		p := p.WithTxPerCPU(8)
		prog := p.Program(1, sim.NewRNG(5))
		rng := sim.NewRNG(6)
		var prev machine.TxInstance
		reused := 0
		for k := 0; ; k++ {
			tx, ok := prog.Next(rng)
			if !ok {
				break
			}
			kept := slices.Clone(tx.Ops)

			fresh := p.Program(1, sim.NewRNG(5))
			frng := sim.NewRNG(6)
			var want machine.TxInstance
			for i := 0; i <= k; i++ {
				want, _ = fresh.Next(frng)
			}
			if tx.StaticID != want.StaticID || !slices.Equal(kept, want.Ops) {
				t.Fatalf("%s instance %d: one program's Next differs from a fresh program's", p.Name(), k)
			}
			// The buffer reallocates only to a larger capacity, so an
			// unchanged capacity means the same backing array.
			if k > 0 && cap(tx.Ops) == cap(prev.Ops) {
				if &prev.Ops[:1][0] != &tx.Ops[:1][0] {
					t.Fatalf("%s instance %d: ops buffer not reused across Next calls", p.Name(), k)
				}
				reused++
			}
			prev = tx
		}
		if reused == 0 {
			t.Fatalf("%s: no two consecutive instances shared the ops buffer", p.Name())
		}
	}
}
