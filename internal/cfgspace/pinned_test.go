package cfgspace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"ceal/internal/cluster"
	"ceal/internal/workflow"
)

// TestSampleNPinned holds every pool SampleN draws from the paper spaces
// to the bytes recorded before the sampler's distinct-set changed from a
// map keyed by Config.Key() to the Numbering: same rng call sequence, same
// acceptance order, hence the same pools under every pinned result. It also
// pins the rng's next draw after each pool, recorded from the serial loop,
// so a sampler that draws past where that loop stops fails — at one core
// and at four.
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
	wantNext := map[string]uint64{
		"LV/2000/1":   0xa99f32b7cb54852,
		"LV/2000/7":   0xefaba344eb5825c3,
		"LV/100000/1": 0xb2ba0956b4defbda,
		"LV/100000/7": 0x929a936a6022b66d,
		"HS/2000/1":   0x6802cc35dbf08e59,
		"HS/2000/7":   0xa2b09c688c754381,
		"HS/100000/1": 0x95798143cd5c96d9,
		"HS/100000/7": 0xd3d2ad5e29e37c92,
		"GP/2000/1":   0x854a9c2ff14e311a,
		"GP/2000/7":   0x602627ab53d54e1,
		"GP/100000/1": 0x7b85878223c97e0e,
		"GP/100000/7": 0xdcfc34211b7bd243,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, b := range workflow.Benchmarks(cluster.Default()) {
			for _, n := range []int{2000, 100000} {
				for _, seed := range []uint64{1, 7} {
					name := fmt.Sprintf("%s/%d/%d", b.Name, n, seed)
					rng := rand.New(rand.NewPCG(seed, 0x5a))
					pool := b.Space.SampleN(rng, n)
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
						t.Errorf("GOMAXPROCS %d: %q: %q,", procs, name, got)
					}
					if next := rng.Uint64(); next != wantNext[name] {
						t.Errorf("GOMAXPROCS %d: %q: next draw %#x, want %#x", procs, name, next, wantNext[name])
					}
				}
			}
		}
	}
}

// BenchmarkSampleN draws a 100k pool from each paper space, as every
// 100k-pool run does before its first fit: the caller's draw and numbering
// against the helpers' validation.
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
