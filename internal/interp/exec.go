package interp

import (
	"fmt"

	"repro/internal/errs"
	"repro/internal/ir"
)

// MaxSteps bounds the instructions executed per iteration, guarding against
// accidentally non-terminating inner loops.
const MaxSteps = 1_000_000

// Runner executes the iterations of one program (or of one pipeline stage)
// against a World, holding its persistent array state between iterations.
type Runner struct {
	Prog  *ir.Program
	World *World

	// OnInstr, when set, is invoked for every executed instruction. The
	// network-processor simulator uses it to meter per-iteration cycle
	// demand.
	OnInstr func(in *ir.Instr)

	// RxFromCtx restricts pkt_rx to the iteration context's pre-pulled
	// packet: with it set, a pkt_rx that finds no pending packet reports
	// stream exhaustion instead of consuming from the shared World. The
	// streaming runtime sets it on every stage runner so concurrent stages
	// never race on the World's packet cursor.
	RxFromCtx bool

	persistent *Store

	// regs and phiVals are per-runner scratch buffers reused across
	// iterations (a Runner executes one iteration at a time). They make
	// RunIteration allocation-free on the hot path, which the host
	// streaming runtime depends on for throughput.
	regs    []int64
	phiVals []int64
}

// Store is persistent-array storage, indexed densely by the
// compiler-assigned array ID. Pipeline stages of one program share a single
// Store (the partitioner guarantees each persistent array is touched by one
// stage only, so the stage goroutines of the streaming runtime never
// contend). It is shared by pointer so that an array materialized lazily by
// one runner (hand-built programs referencing arrays outside prog.Arrays)
// is visible to every runner sharing the store.
type Store struct {
	arrays [][]int64 // array ID -> storage (nil: not yet materialized)
}

// NewStore returns a store pre-populated with every persistent array of the
// given programs. Pre-population matters for the concurrent runtime: with
// all storage materialized up front, stage goroutines only ever read the
// store, so no locking is needed.
func NewStore(progs ...*ir.Program) *Store {
	s := &Store{}
	for _, p := range progs {
		for _, a := range p.Arrays {
			if a.Persistent {
				s.Get(a)
			}
		}
	}
	return s
}

// Get returns the storage for the persistent array a, materializing it
// (with a's initializer) on first touch.
func (s *Store) Get(a *ir.Array) []int64 {
	if a.ID >= len(s.arrays) {
		grown := make([][]int64, a.ID+1)
		copy(grown, s.arrays)
		s.arrays = grown
	}
	st := s.arrays[a.ID]
	if st == nil {
		st = make([]int64, a.Size)
		copy(st, a.Init)
		s.arrays[a.ID] = st
	}
	return st
}

// Materialize pre-populates the store with every persistent array of the
// given programs that it does not hold yet. The adaptive serve path uses it
// when re-cutting a live pipeline: the new stage programs reference cloned
// array descriptors, and materializing them against the serving store before
// the swap keeps the hot path read-only (same invariant NewStore provides).
// Arrays already materialized keep their current contents: descriptors with
// the same compiler-assigned ID alias the same storage, which is exactly the
// state-handover a re-cut needs.
func (s *Store) Materialize(progs ...*ir.Program) {
	for _, p := range progs {
		for _, a := range p.Arrays {
			if a.Persistent {
				s.Get(a)
			}
		}
	}
}

// Fork returns a store that shares every array of s except those listed,
// which are deep-copied at their current contents. The sharded serve
// runtime forks one store per stage replica when a stage's persistent
// arrays are flow-keyed: each replica then owns its flows' partition of
// the table while read-only arrays stay shared.
func (s *Store) Fork(arrs []*ir.Array) *Store {
	f := &Store{arrays: make([][]int64, len(s.arrays))}
	copy(f.arrays, s.arrays)
	for _, a := range arrs {
		st := s.Get(a)
		cp := make([]int64, len(st))
		copy(cp, st)
		f.arrays[a.ID] = cp
	}
	return f
}

// NewRunner creates a runner with freshly initialized persistent state.
func NewRunner(prog *ir.Program, world *World) *Runner {
	return &Runner{Prog: prog, World: world, persistent: NewStore(prog)}
}

// NewRunnerShared creates a runner bound to an existing persistent store —
// the building block the sharded serve runtime uses to give each pipeline
// replica either the shared store or a flow-partitioned fork of it.
func NewRunnerShared(prog *ir.Program, world *World, store *Store) *Runner {
	return &Runner{Prog: prog, World: world, persistent: store}
}

// SharePersistent makes r use the same persistent storage as other. Pipeline
// stages of one original program share the program's flow state (the
// partitioner guarantees each persistent array is touched by one stage only).
func (r *Runner) SharePersistent(other *Runner) { r.persistent = other.persistent }

// PersistentStore returns the runner's persistent-array store, so a
// different execution backend can be wired against the same flow state.
func (r *Runner) PersistentStore() *Store { return r.persistent }

// NewStageRunners builds one Runner per pipeline stage, all sharing one
// fully pre-populated persistent store (see NewStore).
func NewStageRunners(stages []*ir.Program, world *World) []*Runner {
	shared := NewStore(stages...)
	runners := make([]*Runner, len(stages))
	for i, s := range stages {
		runners[i] = &Runner{Prog: s, World: world, persistent: shared}
	}
	return runners
}

// emit routes an observable event: into the iteration's deferred buffer
// when the context asks for it (concurrent stage execution), else straight
// onto the shared World trace (sequential oracle paths).
func (r *Runner) emit(ctx *IterCtx, e Event) {
	if ctx.DeferEvents {
		ctx.Events = append(ctx.Events, e)
		return
	}
	r.World.emit(e)
}

// array returns the storage for arr in the given iteration context.
func (r *Runner) array(ctx *IterCtx, arr *ir.Array) []int64 {
	if arr.Persistent {
		return r.persistent.Get(arr)
	}
	return ctx.Local(arr.ID, arr.Size)
}

func wrapIndex(i int64, size int) int {
	m := i % int64(size)
	if m < 0 {
		m += int64(size)
	}
	return int(m)
}

// RunIteration executes one PPS-loop iteration of r.Prog.Func in the given
// per-iteration context. recv supplies the live-set slot values consumed by
// OpRecvLS (nil for a first stage / sequential program); the values sent by
// OpSendLS are returned.
func (r *Runner) RunIteration(ctx *IterCtx, recv []int64) ([]int64, error) {
	return r.RunIterationInto(ctx, recv, nil)
}

// RunIterationInto is RunIteration with a caller-owned destination buffer
// for the outgoing live set: when dst has capacity for the slots OpSendLS
// emits, the returned slice aliases dst and the handoff allocates nothing.
// A nil (or too-small) dst falls back to allocating, and an iteration that
// sends nothing still returns nil. This mirrors the compiled backend's
// method of the same name so the streaming runtime can drive either
// backend through one zero-copy handoff path.
func (r *Runner) RunIterationInto(ctx *IterCtx, recv, dst []int64) (sent []int64, err error) {
	f := r.Prog.Func
	if cap(r.regs) < f.NumRegs {
		r.regs = make([]int64, f.NumRegs)
	}
	regs := r.regs[:f.NumRegs]
	clear(regs)
	cur := f.Blocks[f.Entry]
	prev := -1
	steps := 0

	for {
		// Phi instructions evaluate in parallel at block entry.
		nPhi := 0
		for _, in := range cur.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			nPhi++
		}
		if nPhi > 0 {
			if cap(r.phiVals) < nPhi {
				r.phiVals = make([]int64, nPhi)
			}
			vals := r.phiVals[:nPhi]
			for i := 0; i < nPhi; i++ {
				in := cur.Instrs[i]
				found := false
				for j, p := range in.PhiPreds {
					if p == prev {
						vals[i] = regs[in.Args[j]]
						found = true
						break
					}
				}
				if !found {
					return nil, fmt.Errorf("%s: b%d: phi has no value for predecessor b%d", f.Name, cur.ID, prev)
				}
			}
			for i := 0; i < nPhi; i++ {
				regs[cur.Instrs[i].Dst] = vals[i]
			}
		}

		for idx := nPhi; idx < len(cur.Instrs); idx++ {
			in := cur.Instrs[idx]
			steps++
			if steps > MaxSteps {
				return nil, fmt.Errorf("%s: step limit exceeded (non-terminating inner loop?)", f.Name)
			}
			if r.OnInstr != nil {
				r.OnInstr(in)
			}
			switch in.Op {
			case ir.OpConst:
				regs[in.Dst] = in.Imm
			case ir.OpCopy:
				regs[in.Dst] = regs[in.Args[0]]
			case ir.OpLoad:
				st := r.array(ctx, in.Arr)
				regs[in.Dst] = st[wrapIndex(regs[in.Args[0]], in.Arr.Size)]
			case ir.OpStore:
				st := r.array(ctx, in.Arr)
				st[wrapIndex(regs[in.Args[0]], in.Arr.Size)] = regs[in.Args[1]]
			case ir.OpCall:
				v, err := r.intrinsic(ctx, in, regs)
				if err != nil {
					return nil, err
				}
				if in.Dst != ir.NoReg {
					regs[in.Dst] = v
				}
			case ir.OpSendLS:
				vals := dst
				if cap(vals) >= len(in.Args) {
					vals = vals[:len(in.Args)]
				} else {
					vals = make([]int64, len(in.Args))
				}
				for i, a := range in.Args {
					vals[i] = regs[a]
				}
				sent = vals
			case ir.OpRecvLS:
				if len(recv) != len(in.Dsts) {
					return nil, fmt.Errorf("%s: recvls expects %d slots, got %d", f.Name, len(in.Dsts), len(recv))
				}
				for i, d := range in.Dsts {
					regs[d] = recv[i]
				}
			case ir.OpJmp:
				prev, cur = cur.ID, f.Blocks[in.Targets[0]]
				goto nextBlock
			case ir.OpBr:
				t := in.Targets[1]
				if regs[in.Args[0]] != 0 {
					t = in.Targets[0]
				}
				prev, cur = cur.ID, f.Blocks[t]
				goto nextBlock
			case ir.OpSwitch:
				v := regs[in.Args[0]]
				t := in.Targets[len(in.Targets)-1]
				for i, c := range in.Cases {
					if v == c {
						t = in.Targets[i]
						break
					}
				}
				prev, cur = cur.ID, f.Blocks[t]
				goto nextBlock
			case ir.OpRet:
				return sent, nil
			default:
				v, err := evalPure(in, regs)
				if err != nil {
					return nil, fmt.Errorf("%s: b%d: %v", f.Name, cur.ID, err)
				}
				regs[in.Dst] = v
			}
		}
		return nil, fmt.Errorf("%s: b%d fell off the end without a terminator", f.Name, cur.ID)
	nextBlock:
	}
}

// evalPure evaluates binary/unary operations with total semantics.
func evalPure(in *ir.Instr, regs []int64) (int64, error) {
	b2i := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	if in.Op.IsUnary() {
		x := regs[in.Args[0]]
		switch in.Op {
		case ir.OpNeg:
			return -x, nil
		case ir.OpNot:
			return b2i(x == 0), nil
		case ir.OpBNot:
			return ^x, nil
		}
	}
	if in.Op.IsBinary() {
		a, b := regs[in.Args[0]], regs[in.Args[1]]
		switch in.Op {
		case ir.OpAdd:
			return a + b, nil
		case ir.OpSub:
			return a - b, nil
		case ir.OpMul:
			return a * b, nil
		case ir.OpDiv:
			if b == 0 {
				return 0, nil
			}
			// Avoid the single overflowing case MinInt64 / -1.
			if a == -a && b == -1 {
				return a, nil
			}
			return a / b, nil
		case ir.OpMod:
			if b == 0 {
				return 0, nil
			}
			if a == -a && b == -1 {
				return 0, nil
			}
			return a % b, nil
		case ir.OpAnd:
			return a & b, nil
		case ir.OpOr:
			return a | b, nil
		case ir.OpXor:
			return a ^ b, nil
		case ir.OpShl:
			return a << (uint64(b) & 63), nil
		case ir.OpShr:
			return a >> (uint64(b) & 63), nil
		case ir.OpEq:
			return b2i(a == b), nil
		case ir.OpNe:
			return b2i(a != b), nil
		case ir.OpLt:
			return b2i(a < b), nil
		case ir.OpLe:
			return b2i(a <= b), nil
		case ir.OpGt:
			return b2i(a > b), nil
		case ir.OpGe:
			return b2i(a >= b), nil
		}
	}
	return 0, fmt.Errorf("cannot evaluate %s", in)
}

// intrinsic dispatches an OpCall.
func (r *Runner) intrinsic(ctx *IterCtx, in *ir.Instr, regs []int64) (int64, error) {
	arg := func(i int) int64 { return regs[in.Args[i]] }
	w := r.World
	switch in.Call {
	case "pkt_rx":
		var p []byte
		if ctx.HasPending {
			// The runtime pre-pulled this iteration's packet at the head
			// stage; consume it without touching the shared stream.
			p, ctx.Pending, ctx.HasPending = ctx.Pending, nil, false
		} else if !r.RxFromCtx {
			p = w.rx()
		}
		if p == nil {
			ctx.Pkt, ctx.HasPkt, ctx.PktShared = nil, false, false
			return -1, nil
		}
		buf := make([]byte, len(p))
		copy(buf, p)
		ctx.Pkt, ctx.HasPkt, ctx.PktShared = buf, true, false
		return int64(len(buf)), nil
	case "pkt_len":
		return int64(len(ctx.Pkt)), nil
	case "pkt_byte":
		off := arg(0)
		if off < 0 || off >= int64(len(ctx.Pkt)) {
			return 0, nil
		}
		return int64(ctx.Pkt[off]), nil
	case "pkt_word":
		off := arg(0)
		var v int64
		for i := int64(0); i < 4; i++ {
			v <<= 8
			if o := off + i; o >= 0 && o < int64(len(ctx.Pkt)) {
				v |= int64(ctx.Pkt[o])
			}
		}
		return v, nil
	case "pkt_setbyte":
		off, val := arg(0), arg(1)
		if off >= 0 && off < int64(len(ctx.Pkt)) {
			ctx.WritablePkt()[off] = byte(val)
		}
		return 0, nil
	case "pkt_setword":
		off, val := arg(0), arg(1)
		pkt := ctx.WritablePkt()
		for i := int64(0); i < 4; i++ {
			if o := off + i; o >= 0 && o < int64(len(pkt)) {
				pkt[o] = byte(val >> (8 * (3 - i)))
			}
		}
		return 0, nil
	case "pkt_send":
		pkt := make([]byte, len(ctx.Pkt))
		copy(pkt, ctx.Pkt)
		r.emit(ctx, Event{Kind: EvSend, Val: arg(0), Pkt: pkt})
		return 0, nil
	case "pkt_drop":
		r.emit(ctx, Event{Kind: EvDrop})
		return 0, nil
	case "meta_get":
		return ctx.Meta[wrapIndex(arg(0), len(ctx.Meta))], nil
	case "meta_set":
		ctx.Meta[wrapIndex(arg(0), len(ctx.Meta))] = arg(1)
		return 0, nil
	case "rt_lookup":
		if w.RT4 == nil {
			return -1, nil
		}
		return w.RT4(arg(0)), nil
	case "rt6_lookup":
		if w.RT6 == nil {
			return -1, nil
		}
		return w.RT6(arg(0), arg(1)), nil
	case "csum_fold":
		v := uint64(arg(0)) & 0xFFFFFFFF
		v = (v & 0xFFFF) + (v >> 16)
		v = (v & 0xFFFF) + (v >> 16)
		return int64(v), nil
	case "hash_crc":
		// A small deterministic integer mix (xorshift-multiply).
		v := uint64(arg(0))
		v ^= v >> 33
		v *= 0xff51afd7ed558ccd
		v ^= v >> 33
		return int64(v & 0x7FFFFFFF), nil
	case "q_put":
		q := arg(0)
		w.Queues[q] = append(w.Queues[q], arg(1))
		return 0, nil
	case "q_get":
		q := arg(0)
		vs := w.Queues[q]
		if len(vs) == 0 {
			return -1, nil
		}
		v := vs[0]
		w.Queues[q] = vs[1:]
		return v, nil
	case "q_len":
		return int64(len(w.Queues[arg(0)])), nil
	case "trace":
		r.emit(ctx, Event{Kind: EvTrace, Val: arg(0)})
		return 0, nil
	}
	return 0, fmt.Errorf("unknown intrinsic %q", in.Call)
}

// RunSequential executes iters iterations of prog against world and returns
// the observable trace.
func RunSequential(prog *ir.Program, world *World, iters int) ([]Event, error) {
	if prog == nil {
		return nil, errs.ErrNilProgram
	}
	if world == nil {
		return nil, errs.ErrNilWorld
	}
	r := NewRunner(prog, world)
	ctx := NewIterCtx()
	for i := 0; i < iters; i++ {
		if _, err := r.RunIteration(ctx, nil); err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		ctx.Reset()
	}
	return world.Trace, nil
}

// RunPipeline executes iters iterations through the given pipeline stages
// (run to completion per iteration, which preserves the sequential trace
// order and is therefore the correctness oracle for partitioning). All
// stages share the world and one pre-populated persistent store.
func RunPipeline(stages []*ir.Program, world *World, iters int) ([]Event, error) {
	if len(stages) == 0 {
		return nil, errs.ErrNoStages
	}
	for i, s := range stages {
		if s == nil {
			return nil, fmt.Errorf("stage %d: %w", i, errs.ErrNilStage)
		}
	}
	if world == nil {
		return nil, errs.ErrNilWorld
	}
	runners := NewStageRunners(stages, world)
	ctx := NewIterCtx()
	for i := 0; i < iters; i++ {
		var slots []int64
		for k, r := range runners {
			out, err := r.RunIteration(ctx, slots)
			if err != nil {
				return nil, fmt.Errorf("iteration %d, stage %d: %w", i, k, err)
			}
			slots = out
		}
		ctx.Reset()
	}
	return world.Trace, nil
}
