package runtime

// Source supplies the packet stream a served pipeline consumes. Next
// returns the next packet and true, or nil and false when the stream is
// exhausted (which drains and shuts the pipeline down). Next is called
// from one goroutine only — the stage-1 unit's, or the flow-hash
// dispatcher's when stage 1 is replicated — so implementations need no
// internal locking; a Source that blocks in Next (a live capture, a
// socket) simply paces the pipeline. The pipeline admits up to a batch
// of packets before stage 1 reads them, so a Source must not overwrite
// a returned packet's bytes in a later Next.
type Source interface {
	Next() ([]byte, bool)
}

// sliceSource replays a packet slice once.
type sliceSource struct {
	pkts [][]byte
	next int
}

func (s *sliceSource) Next() ([]byte, bool) {
	if s.next >= len(s.pkts) {
		return nil, false
	}
	p := s.pkts[s.next]
	s.next++
	return p, true
}

// Packets returns a Source that replays pkts once, in order.
func Packets(pkts [][]byte) Source { return &sliceSource{pkts: pkts} }

// repeatSource cycles through a packet slice until total packets have been
// produced.
type repeatSource struct {
	pkts  [][]byte
	total int
	n     int
}

func (s *repeatSource) Next() ([]byte, bool) {
	if s.n >= s.total || len(s.pkts) == 0 {
		return nil, false
	}
	p := s.pkts[s.n%len(s.pkts)]
	s.n++
	return p, true
}

// Repeat returns a Source that cycles through pkts until total packets
// have been delivered — the saturated-arrivals load generator the serve
// benchmarks use.
func Repeat(pkts [][]byte, total int) Source {
	return &repeatSource{pkts: pkts, total: total}
}

// funcSource adapts a closure.
type funcSource func() ([]byte, bool)

func (f funcSource) Next() ([]byte, bool) { return f() }

// SourceFunc adapts a closure to the Source interface.
func SourceFunc(f func() ([]byte, bool)) Source { return funcSource(f) }
