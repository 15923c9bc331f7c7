package cfgspace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"testing"

	"ceal/internal/cluster"
	"ceal/internal/workflow"
)

// TestSampleNPinned holds every pool SampleN draws from the paper spaces
// to the bytes recorded before the sampler's distinct-set changed from a
// map keyed by Config.Key() to the Numbering: same rng call sequence, same
// acceptance order, hence the same pools under every pinned result.
func TestSampleNPinned(t *testing.T) {
	want := map[string]string{
		"LV/2000/1":   "1632094cabd08658",
		"LV/2000/7":   "30df38ac58ce10cc",
		"LV/100000/1": "2ddadd4a26385cf2",
		"LV/100000/7": "3643338cf4125867",
		"HS/2000/1":   "224bcd98c35ea922",
		"HS/2000/7":   "347caa277e4bfdda",
		"HS/100000/1": "5c82128e74449e04",
		"HS/100000/7": "9d100f51794e31ea",
		"GP/2000/1":   "42f5ca001b505526",
		"GP/2000/7":   "d0ae1583bcbb876d",
		"GP/100000/1": "335a541074eef7e9",
		"GP/100000/7": "3bd7f46f38f5fb7f",
	}
	for _, b := range workflow.Benchmarks(cluster.Default()) {
		for _, n := range []int{2000, 100000} {
			for _, seed := range []uint64{1, 7} {
				name := fmt.Sprintf("%s/%d/%d", b.Name, n, seed)
				pool := b.Space.SampleN(rand.New(rand.NewPCG(seed, 0x5a)), n)
				if len(pool) != n {
					t.Fatalf("%s: %d configurations", name, len(pool))
				}
				h := sha256.New()
				var buf [8]byte
				for _, cfg := range pool {
					for _, v := range cfg {
						binary.LittleEndian.PutUint64(buf[:], uint64(v))
						h.Write(buf[:])
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want[name] {
					t.Errorf("%q: %q,", name, got)
				}
			}
		}
	}
}

// BenchmarkSampleN draws a 100k pool from each paper space: the serial
// prefix of every bigpool run.
func BenchmarkSampleN(b *testing.B) {
	for _, bench := range workflow.Benchmarks(cluster.Default()) {
		b.Run(bench.Name+"/100k", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if pool := bench.Space.SampleN(rand.New(rand.NewPCG(7, 1)), 100000); len(pool) != 100000 {
					b.Fatalf("%d configurations", len(pool))
				}
			}
		})
	}
}
