package trace

import (
	"reflect"
	"testing"

	"exocore/internal/prog"
)

// bigTrace synthesizes a trace long enough to span many chunks, reusing
// the sample program's five static instructions.
func bigTrace(n int) *Trace {
	t := sampleTrace()
	insts := make([]DynInst, n)
	for i := range insts {
		src := t.Insts[i%len(t.Insts)]
		src.Addr = uint64(0x100 + 8*i)
		insts[i] = src
	}
	return &Trace{Prog: t.Prog, Insts: insts}
}

func drain(t *testing.T, src Source) []DynInst {
	t.Helper()
	var out []DynInst
	prevEnd := 0
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		if c.Base != prevEnd {
			t.Fatalf("chunk base %d, want %d (chunks must be adjacent)", c.Base, prevEnd)
		}
		if len(c.Insts) == 0 {
			t.Fatal("empty chunk yielded")
		}
		out = append(out, c.Insts...)
		prevEnd = c.Base + len(c.Insts)
		c.Release()
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSliceSourceChunking(t *testing.T) {
	tr := bigTrace(10_007) // prime-ish: last chunk is partial
	for _, chunk := range []int{1, 7, 256, 10_006, 10_007, 1 << 20} {
		got := drain(t, NewSliceSource(tr, chunk))
		if !reflect.DeepEqual(got, tr.Insts) {
			t.Fatalf("chunk %d: drained stream differs from trace", chunk)
		}
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	tr := bigTrace(5000)
	got, err := Materialize(NewSliceSource(tr, 777), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Prog != tr.Prog || !reflect.DeepEqual(got.Insts, tr.Insts) {
		t.Fatal("materialized trace differs")
	}
}

func TestChunkPoolHighWater(t *testing.T) {
	p := NewChunkPool(1024)
	a, b := p.Get(), p.Get()
	if want := int64(2 * 1024 * 16); p.HighWaterBytes() != want {
		t.Fatalf("high water %d, want %d", p.HighWaterBytes(), want)
	}
	a.Release()
	b.Release()
	c := p.Get()
	defer c.Release()
	if want := int64(2 * 1024 * 16); p.HighWaterBytes() != want {
		t.Fatalf("high water shrank to %d, want sticky %d", p.HighWaterBytes(), want)
	}
	// Double release must not double-count.
	a.Release()
}

// loopSource replays a trace's instructions cyclically through a
// ChunkPool until budget instructions have been yielded: the buffer
// traffic of a looped generator source, without the simulator.
type loopSource struct {
	t      *Trace
	pool   *ChunkPool
	budget int
	base   int
}

func (s *loopSource) Prog() *prog.Program { return s.t.Prog }
func (s *loopSource) Err() error          { return nil }

func (s *loopSource) Next() (*Chunk, bool) {
	if s.base >= s.budget {
		return nil, false
	}
	c := s.pool.Get()
	n := min(s.pool.ChunkInsts(), s.budget-s.base)
	for i := 0; i < n; i++ {
		c.Insts = append(c.Insts, s.t.Insts[(s.base+i)%len(s.t.Insts)])
	}
	c.Base = s.base
	s.base += n
	return c, true
}

// TestChunkPoolReusesBuffers pins the free list: a warm pool recycles
// without allocating, and a pipelined drain holds at most the producer's
// chunk, the channel's and the consumer's, however the two goroutines
// interleave. Released buffers never outnumber the high-water mark.
func TestChunkPoolReusesBuffers(t *testing.T) {
	p := NewChunkPool(1024)
	p.Get().Release()
	if allocs := testing.AllocsPerRun(100, func() { p.Get().Release() }); allocs != 0 {
		t.Fatalf("warm Get+Release allocates %v times, want 0", allocs)
	}

	const chunk = 256
	tr := bigTrace(1000)
	src := &loopSource{t: tr, pool: NewChunkPool(chunk), budget: 200 * chunk}
	got := drain(t, NewPipelined(src, DefaultPipelineDepth))
	if len(got) != src.budget {
		t.Fatalf("drained %d insts, want %d", len(got), src.budget)
	}
	for i := range got {
		if got[i] != tr.Insts[i%len(tr.Insts)] {
			t.Fatalf("inst %d differs from the looped trace", i)
		}
	}
	if limit := int64(DefaultPipelineDepth+2) * chunk * 16; src.pool.HighWaterBytes() > limit {
		t.Fatalf("pipelined drain held %d B of buffers, want <= %d", src.pool.HighWaterBytes(), limit)
	}
	if len(src.pool.free) != src.pool.highWater {
		t.Fatalf("free list holds %d buffers after the drain, want the high-water %d", len(src.pool.free), src.pool.highWater)
	}
}

func TestTeeObservesEveryChunk(t *testing.T) {
	tr := bigTrace(3000)
	var seen []DynInst
	src := Tee(NewSliceSource(tr, 512), func(c *Chunk) {
		seen = append(seen, c.Insts...)
	})
	got := drain(t, src)
	if !reflect.DeepEqual(got, tr.Insts) || !reflect.DeepEqual(seen, tr.Insts) {
		t.Fatal("tee consumer or observer stream differs from trace")
	}
}

func TestPipelinedMatchesDirect(t *testing.T) {
	tr := bigTrace(20_000)
	for _, depth := range []int{1, 2, 8} {
		got := drain(t, NewPipelined(NewSliceSource(tr, 997), depth))
		if !reflect.DeepEqual(got, tr.Insts) {
			t.Fatalf("depth %d: pipelined stream differs from trace", depth)
		}
	}
}

func TestPipelinedStop(t *testing.T) {
	tr := bigTrace(50_000)
	p := NewPipelined(NewSliceSource(tr, 100), 4)
	if _, ok := p.Next(); !ok {
		t.Fatal("no first chunk")
	}
	p.Stop()
	p.Stop() // idempotent
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsMergeMatchesWholeScan is the differential gate for the
// per-chunk statistics accumulator: partitioning a trace at arbitrary
// boundaries and merging the per-chunk Stats must reproduce the
// whole-scan ComputeStats exactly, including the FP/memory class split.
func TestStatsMergeMatchesWholeScan(t *testing.T) {
	tr := bigTrace(12_345)
	whole := tr.ComputeStats()
	for _, chunk := range []int{1, 3, 100, 4096, 12_344} {
		var merged Stats
		src := NewSliceSource(tr, chunk)
		for {
			c, ok := src.Next()
			if !ok {
				break
			}
			var part Stats
			part.Accumulate(tr.Prog, c.Insts)
			merged.Merge(part)
		}
		if merged != whole {
			t.Fatalf("chunk %d: merged stats %+v != whole-scan %+v", chunk, merged, whole)
		}
	}
}
