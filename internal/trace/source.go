// Streaming trace sources: the chunk-iterator API that lets paper-scale
// runs (hundreds of millions of dynamic instructions) flow through the
// trace→TDG→eval pipeline without ever materializing the whole []DynInst
// array. A Source hands out bounded Chunks one at a time; generator-backed
// sources recycle chunk buffers through their own ChunkPool once the
// consumer releases them, so steady-state memory is O(chunks in flight),
// not O(trace).
package trace

import (
	"sync"

	"exocore/internal/prog"
)

// DefaultChunkInsts is the default dynamic instructions per chunk: 64Ki
// instructions = 1 MiB of DynInst per buffer, small enough that a chunk
// stays resident in L2 through every pass the producer and consumer make
// over it, large enough that producer/consumer hand-offs stay a
// negligible share of the work.
const DefaultChunkInsts = 1 << 16

// Chunk is a bounded run of consecutive dynamic instructions from one
// trace. Base is the dynamic index of Insts[0] in the whole trace, so
// consumers that key state by dynamic index (the µDG streaming window)
// can stay chunk-agnostic.
type Chunk struct {
	Base  int
	Insts []DynInst

	pool *ChunkPool // owner while checked out, nil otherwise
}

// Release returns the chunk's buffer to its source's pool. The chunk and
// its Insts must not be touched afterwards. Calling Release on a chunk
// without an owning pool (eg. a SliceSource view), or a second time, is
// a no-op; releasing is an optimization, never an obligation —
// unreleased buffers are reclaimed by the garbage collector.
func (c *Chunk) Release() {
	if p := c.pool; p != nil {
		c.pool = nil
		p.put(c)
	}
}

// Source is a forward-only iterator over a dynamic trace in bounded
// chunks. Next returns the next chunk and true, or (nil, false) once the
// trace is exhausted or the source has failed; Err distinguishes the two.
// A returned chunk remains valid until its Release call — sources must
// not recycle a buffer the consumer still holds, which is what lets a
// producer goroutine run ahead of the consumer (see Pipelined).
//
// Sources are single-consumer and not safe for concurrent Next calls.
// They are forward-only: replaying a trace means constructing a fresh
// source, which generator-backed implementations make cheap and
// deterministic (same workload, same seed, same bytes).
type Source interface {
	// Prog returns the static program the dynamic stream executes.
	Prog() *prog.Program
	// Next returns the next chunk, or (nil, false) at end of stream.
	Next() (*Chunk, bool)
	// Err returns the first failure encountered while synthesizing the
	// stream, or nil. Next returns false after a failure.
	Err() error
}

// ChunkPool hands out fixed-capacity chunk buffers and tracks the
// high-water mark of buffers simultaneously outstanding — the streaming
// pipeline's actual resident trace memory, exported as the
// trace.chunk_high_water_bytes gauge by the evaluation layers.
//
// Released buffers wait on the pool's own free list, so they live
// exactly as long as the pool (one per source) and a garbage collection
// never forces a reallocation. A buffer is allocated only when every
// earlier one is checked out, so the pool never holds more buffers than
// its high-water mark. Get and Release may run on different goroutines
// (a pipelined producer and its consumer).
type ChunkPool struct {
	chunkInsts int

	mu          sync.Mutex
	free        []*Chunk
	outstanding int
	highWater   int
}

// NewChunkPool creates a pool of n-instruction chunk buffers (n <= 0
// selects DefaultChunkInsts).
func NewChunkPool(n int) *ChunkPool {
	if n <= 0 {
		n = DefaultChunkInsts
	}
	return &ChunkPool{chunkInsts: n}
}

// ChunkInsts returns the pool's per-chunk instruction capacity.
func (p *ChunkPool) ChunkInsts() int { return p.chunkInsts }

// Get returns an empty chunk with the pool's full capacity available.
// The chunk returns to the pool on Release.
func (p *ChunkPool) Get() *Chunk {
	p.mu.Lock()
	var c *Chunk
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.outstanding++
	p.highWater = max(p.highWater, p.outstanding)
	p.mu.Unlock()
	if c == nil {
		c = &Chunk{Insts: make([]DynInst, 0, p.chunkInsts)}
	}
	c.Base, c.Insts, c.pool = 0, c.Insts[:0], p
	return c
}

func (p *ChunkPool) put(c *Chunk) {
	p.mu.Lock()
	p.outstanding--
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// HighWaterBytes returns the peak bytes of chunk buffers simultaneously
// outstanding (checked out and not yet released).
func (p *ChunkPool) HighWaterBytes() int64 {
	const instBytes = 16 // unsafe.Sizeof(DynInst{}), kept packed by design
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.highWater) * int64(p.chunkInsts) * instBytes
}

// ChunkAccounting is implemented by sources that can report their peak
// resident chunk-buffer footprint. Pipeline wrappers forward it.
type ChunkAccounting interface {
	ChunkHighWaterBytes() int64
}

// SliceSource adapts a materialized Trace to the Source interface,
// yielding zero-copy views of the backing array — the compatibility
// bridge that lets every consumer be written against Source while the
// whole-trace path keeps working unchanged.
type SliceSource struct {
	t          *Trace
	chunkInsts int
	pos        int
}

// NewSliceSource returns a Source over t's instructions in chunks of
// chunkInsts (<= 0 selects DefaultChunkInsts). The yielded chunks alias
// t.Insts; Release is a no-op.
func NewSliceSource(t *Trace, chunkInsts int) *SliceSource {
	if chunkInsts <= 0 {
		chunkInsts = DefaultChunkInsts
	}
	return &SliceSource{t: t, chunkInsts: chunkInsts}
}

// Prog implements Source.
func (s *SliceSource) Prog() *prog.Program { return s.t.Prog }

// Err implements Source; slice sources cannot fail.
func (s *SliceSource) Err() error { return nil }

// Next implements Source. The returned chunk is a zero-copy view into
// the trace. Each call allocates a fresh (tiny) Chunk header rather than
// reusing one, honoring the valid-until-Release contract a pipelining
// wrapper depends on.
func (s *SliceSource) Next() (*Chunk, bool) {
	if s.pos >= len(s.t.Insts) {
		return nil, false
	}
	end := s.pos + s.chunkInsts
	if end > len(s.t.Insts) {
		end = len(s.t.Insts)
	}
	c := &Chunk{Base: s.pos, Insts: s.t.Insts[s.pos:end]}
	s.pos = end
	return c, true
}

// Materialize drains a source into a whole Trace — the adapter for
// consumers that genuinely need random access (BSA transforms, region
// attribution). hint pre-sizes the instruction array (0 = unknown).
func Materialize(src Source, hint int) (*Trace, error) {
	if hint < 0 {
		hint = 0
	}
	out := &Trace{Prog: src.Prog(), Insts: make([]DynInst, 0, hint)}
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		out.Insts = append(out.Insts, c.Insts...)
		c.Release()
	}
	return out, src.Err()
}

// Tee returns a Source that forwards src unchanged while calling feed on
// every chunk before handing it to the consumer — how the streaming TDG
// builder observes the stream the evaluation is consuming without a
// second synthesis pass.
func Tee(src Source, feed func(*Chunk)) Source {
	return &teeSource{src: src, feed: feed}
}

type teeSource struct {
	src  Source
	feed func(*Chunk)
}

func (t *teeSource) Prog() *prog.Program { return t.src.Prog() }
func (t *teeSource) Err() error          { return t.src.Err() }

func (t *teeSource) Next() (*Chunk, bool) {
	c, ok := t.src.Next()
	if ok {
		t.feed(c)
	}
	return c, ok
}

// ChunkHighWaterBytes forwards the inner source's accounting.
func (t *teeSource) ChunkHighWaterBytes() int64 {
	if acc, ok := t.src.(ChunkAccounting); ok {
		return acc.ChunkHighWaterBytes()
	}
	return 0
}

// Pipelined runs an inner source on a producer goroutine, sending chunks
// to the consumer over a bounded channel — chunk synthesis (functional
// simulation + cache/branch-predictor annotation) overlaps with µDG
// evaluation instead of alternating with it. depth bounds the chunks
// buffered ahead of the consumer, so resident trace memory stays at
// (depth + in-flight) chunks.
type Pipelined struct {
	src  Source
	ch   chan *Chunk
	stop chan struct{}
	done chan struct{} // closed when the producer goroutine exits

	stopOnce sync.Once
	errMu    sync.Mutex
	err      error
}

// DefaultPipelineDepth is the default producer lookahead, in chunks.
const DefaultPipelineDepth = 2

// NewPipelined starts a producer goroutine over src and returns the
// consumer-side source. depth <= 0 selects DefaultPipelineDepth. The
// consumer must either drain the source or call Stop; both shut the
// producer down and release any buffered chunks.
func NewPipelined(src Source, depth int) *Pipelined {
	if depth <= 0 {
		depth = DefaultPipelineDepth
	}
	p := &Pipelined{
		src:  src,
		ch:   make(chan *Chunk, depth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go p.produce()
	return p
}

func (p *Pipelined) produce() {
	defer close(p.done)
	defer close(p.ch)
	for {
		c, ok := p.src.Next()
		if !ok {
			p.errMu.Lock()
			p.err = p.src.Err()
			p.errMu.Unlock()
			return
		}
		select {
		case p.ch <- c:
		case <-p.stop:
			c.Release()
			return
		}
	}
}

// Prog implements Source.
func (p *Pipelined) Prog() *prog.Program { return p.src.Prog() }

// Next implements Source, receiving the producer's next chunk.
func (p *Pipelined) Next() (*Chunk, bool) {
	c, ok := <-p.ch
	return c, ok
}

// Err implements Source. Valid once Next has returned false (the
// producer records the inner source's error before closing the channel).
func (p *Pipelined) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

// Stop shuts the producer down early (a consumer abandoning the stream
// mid-way) and releases all buffered chunks. Safe to call multiple times
// and safe after normal exhaustion; blocks until the producer goroutine
// has exited.
func (p *Pipelined) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
	for c := range p.ch {
		c.Release()
	}
}

// ChunkHighWaterBytes forwards the inner source's accounting.
func (p *Pipelined) ChunkHighWaterBytes() int64 {
	if acc, ok := p.src.(ChunkAccounting); ok {
		return acc.ChunkHighWaterBytes()
	}
	return 0
}
