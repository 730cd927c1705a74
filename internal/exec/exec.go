// Package exec is the compiled stage-execution backend: it lowers an
// ir.Program once into a flat, slot-indexed closure program and then runs
// iterations by dispatching through that program directly. Where the
// interpreter in internal/interp walks the IR tree — a switch on in.Op per
// step, a string switch per intrinsic call, and an array-storage lookup per
// load/store — the compiled form pre-resolves everything resolvable at
// compile time:
//
//   - basic-block labels become block indices (the closure for a terminator
//     returns the next block, with the per-edge phi moves folded in, so a
//     taken branch costs exactly one dispatch);
//   - registers and phi slots become offsets into one dense frame, captured
//     by the closures as a slice, so no per-step indirection remains;
//   - persistent arrays are bound to their preallocated []int64 storage at
//     compile time, and local arrays to dense per-iteration bind slots;
//   - every pure op, terminator shape, and intrinsic is specialized into its
//     own closure; the straight-line body of a basic block executes as one
//     contiguous closure sweep per dispatch, with the step budget charged
//     per block rather than per instruction.
//
// Four lowering rules then cut the closures a packet dispatches:
//
//   - Constant folding. A register whose single writer is an OpConst, or a
//     pure op (copy, unary, binary or comparison; not div/mod) whose
//     operands are all such constants read after their writers, holds a
//     value known at lowering time. When every read of it is dominated by
//     its writer, the value is written into the frame once at compile time
//     and the writer drops out of the hot body.
//   - Narrow frame reset. The interpreter zeroes its frame per iteration;
//     here only the registers some path can read before writing them are
//     zeroed (a forward "definitely written" dataflow over the CFG, phi
//     moves on edges included). Every other register is either a preloaded
//     constant or written on every path before its first read, so a value
//     left over from the previous iteration is never observed.
//   - Compare-and-branch fusion. An OpBr whose condition is computed by the
//     comparison just before it, with no other reader, becomes one
//     terminator closure that compares and branches.
//   - Immediate operands. Binary ops, fused branches and pkt_byte/pkt_word
//     with a preloaded operand capture the constant instead of its slot.
//
// None of these rules touches step accounting: a block's cost still counts
// every IR instruction (folded and fused ones included), and its exact
// sequence still executes every instruction, so the MaxSteps limit fires on
// the same step with the same message as the interpreter.
//
// The backend preserves the interpreter's semantics exactly — the MaxSteps
// bound (bulk per-block accounting switches to a per-instruction exact path
// before the budget can be crossed), wrapIndex array wrapping, total
// evalPure arithmetic, RxFromCtx stream discipline, event ordering, and the
// send/recv live-set layout — and the interpreter is retained as the
// behavioural oracle: the differential tests in this package and the
// cross-backend fuzz harness in internal/runtime hold the two byte-identical
// on the same inputs.
package exec

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Control-flow sentinels a compiled terminator may return instead of a next
// block index. Body closures return pcErr on failure and any non-negative
// value otherwise (the dispatch loop only inspects them for pcErr).
const (
	pcRet = -1 // OpRet: the iteration completed normally
	pcErr = -2 // a runtime error was parked in Runner.err
)

// instrFn is one compiled instruction: it performs its effect and returns
// the next block index / sentinel (terminators) or pcErr / don't-care
// (body instructions).
type instrFn func(m *Runner) int

// block is one compiled basic block: the hot-path body sweep, the exact
// per-instruction sequence for the MaxSteps boundary, and the terminator.
type block struct {
	// body is the straight-line sweep the fast path runs: every non-phi,
	// non-terminator instruction except preloaded constants and a
	// comparison fused into term.
	body []instrFn
	// seq is every instruction of the same region, executed one at a time
	// (with exact step counting) once the step budget comes within one
	// block of MaxSteps.
	seq []instrFn
	// term transfers control: it performs the taken edge's phi moves and
	// returns the successor block (or pcRet / pcErr). For a block with no
	// terminator it is the interpreter's "fell off the end" error. A fused
	// term evaluates the comparison it absorbed itself.
	term instrFn
	// cost is the steps the fast path charges for one pass through the
	// block: len(seq) plus termCost. termCost is 1 for a real terminator
	// (the interpreter counts it like any instruction) and 0 for the
	// synthetic fell-off-the-end error (the interpreter raises it without
	// consuming a step).
	cost     int
	termCost int
}

// Runner executes iterations of one compiled program (or one pipeline
// stage), holding its persistent array state between iterations. It mirrors
// interp.Runner's API so the streaming runtime can drive either backend
// through the same calls; like interp.Runner, it executes one iteration at
// a time and is confined to a single goroutine.
type Runner struct {
	Prog  *ir.Program
	World *interp.World

	// RxFromCtx restricts pkt_rx to the iteration context's pre-pulled
	// packet, exactly as on interp.Runner: the streaming runtime sets it
	// on every stage runner so concurrent stages never race on the
	// World's packet cursor. It is read at execution time, so it may be
	// set after construction (the compiled pkt_rx closure consults it).
	RxFromCtx bool

	persistent *interp.Store

	blocks    []block
	entry     int  // entry block index
	entryEdge edge // phi moves of the virtual predecessor -1 edge
	name      string

	// regs is the dense iteration frame. It is allocated once at compile
	// time, with the preloaded constants written in, and captured directly
	// by the compiled closures, so register access is a single slice
	// index. reset lists the registers zeroed at iteration start: those
	// some path can read before writing them.
	regs   []int64
	reset  []int
	phiBuf []int64

	// localArrs lists the distinct local arrays the program touches;
	// localBind holds their per-iteration storage, re-resolved from the
	// IterCtx at the top of every RunIteration (local state flows with
	// the iteration token, not with the stage).
	localArrs []*ir.Array
	localBind [][]int64

	// Per-iteration state the closures reach through the runner.
	ctx  *interp.IterCtx
	recv []int64
	sent []int64
	err  error

	// sendDst, when non-nil, is a caller-owned buffer OpSendLS writes the
	// outgoing live set into instead of allocating (set per call by
	// RunIterationInto). It is only reused when its capacity covers the
	// live set; an iteration that executes no OpSendLS leaves it untouched.
	sendDst []int64
}

// NewRunner compiles prog against freshly initialized persistent state.
func NewRunner(prog *ir.Program, world *interp.World) *Runner {
	r := &Runner{Prog: prog, World: world, persistent: interp.NewStore(prog)}
	r.compile()
	return r
}

// NewRunnerShared compiles prog against an existing persistent store. The
// store must be supplied up front because compilation binds persistent
// arrays to their storage slices at closure-build time — a store swapped in
// afterwards would be silently ignored. The sharded serve runtime uses this
// to compile each pipeline replica against either the shared store or a
// flow-partitioned fork.
func NewRunnerShared(prog *ir.Program, world *interp.World, store *interp.Store) *Runner {
	r := &Runner{Prog: prog, World: world, persistent: store}
	r.compile()
	return r
}

// NewStageRunners compiles one Runner per pipeline stage, all bound to one
// fully pre-populated persistent store (the same sharing discipline as
// interp.NewStageRunners: every persistent array is materialized before any
// stage goroutine starts, and each array's storage is touched by exactly
// one stage per the partitioning invariant, so no locking is needed).
func NewStageRunners(stages []*ir.Program, world *interp.World) []*Runner {
	shared := interp.NewStore(stages...)
	runners := make([]*Runner, len(stages))
	for i, s := range stages {
		runners[i] = &Runner{Prog: s, World: world, persistent: shared}
		runners[i].compile()
	}
	return runners
}

// PersistentStore returns the runner's persistent-array store.
func (m *Runner) PersistentStore() *interp.Store { return m.persistent }

// wrapIndex mirrors the interpreter's array-index wrapping: out-of-range
// indices wrap modulo the array size, with negative indices brought into
// range.
func wrapIndex(i int64, size int) int {
	v := i % int64(size)
	if v < 0 {
		v += int64(size)
	}
	return int(v)
}

// RunIteration executes one PPS-loop iteration of the compiled program in
// the given per-iteration context. recv supplies the live-set slot values
// consumed by OpRecvLS (nil for a first stage / sequential program); the
// values sent by OpSendLS are returned. The semantics — including error
// cases and the MaxSteps bound — match interp.Runner.RunIteration exactly.
func (m *Runner) RunIteration(ctx *interp.IterCtx, recv []int64) ([]int64, error) {
	return m.RunIterationInto(ctx, recv, nil)
}

// RunIterationInto is RunIteration with a caller-owned destination buffer
// for the outgoing live set: when dst has capacity for the slots OpSendLS
// emits, the returned slice aliases dst and the handoff allocates nothing.
// A nil (or too-small) dst falls back to allocating, and an iteration that
// sends nothing still returns nil. The streaming runtime threads each
// token's spare buffer through here so a steady-state handoff is a few
// word copies into memory the token already owns.
func (m *Runner) RunIterationInto(ctx *interp.IterCtx, recv, dst []int64) ([]int64, error) {
	m.ctx, m.recv, m.sent, m.err, m.sendDst = ctx, recv, nil, nil, dst
	regs := m.regs
	for _, r := range m.reset {
		regs[r] = 0
	}
	for i, a := range m.localArrs {
		m.localBind[i] = ctx.Local(a.ID, a.Size)
	}
	bi := m.entry
	if e := &m.entryEdge; !e.trivial() {
		bi = m.take(e)
	}
	blocks := m.blocks
	steps := 0
loop:
	for bi >= 0 {
		b := &blocks[bi]
		if steps+b.cost > interp.MaxSteps {
			// Within one block of the budget: fall back to exact
			// per-instruction accounting so the limit fires on
			// precisely the same step as the interpreter.
			bi = m.runExact(bi, steps)
			break loop
		}
		steps += b.cost
		for _, fn := range b.body {
			if fn(m) == pcErr {
				bi = pcErr
				break loop
			}
		}
		bi = b.term(m)
	}
	sent, err := m.sent, m.err
	m.ctx, m.recv, m.sent, m.err, m.sendDst = nil, nil, nil, nil, nil
	if bi == pcErr {
		return nil, err
	}
	return sent, nil
}

// runExact continues an iteration with per-instruction step accounting (the
// interpreter increments and checks before executing each instruction). It
// runs only when an iteration comes within one block of MaxSteps, so its
// cost is irrelevant; what matters is that its counting is byte-exact.
func (m *Runner) runExact(bi, steps int) int {
	blocks := m.blocks
	for bi >= 0 {
		b := &blocks[bi]
		for _, fn := range b.seq {
			steps++
			if steps > interp.MaxSteps {
				m.err = fmt.Errorf("%s: step limit exceeded (non-terminating inner loop?)", m.name)
				return pcErr
			}
			if fn(m) == pcErr {
				return pcErr
			}
		}
		if b.termCost != 0 {
			steps++
			if steps > interp.MaxSteps {
				m.err = fmt.Errorf("%s: step limit exceeded (non-terminating inner loop?)", m.name)
				return pcErr
			}
		}
		bi = b.term(m)
	}
	return bi
}

// RunSequential executes iters iterations of prog against world on the
// compiled backend and returns the observable trace. It is the compiled
// counterpart of interp.RunSequential.
func RunSequential(prog *ir.Program, world *interp.World, iters int) ([]interp.Event, error) {
	if prog == nil {
		return nil, errs.ErrNilProgram
	}
	if world == nil {
		return nil, errs.ErrNilWorld
	}
	r := NewRunner(prog, world)
	ctx := interp.NewIterCtx()
	for i := 0; i < iters; i++ {
		if _, err := r.RunIteration(ctx, nil); err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		ctx.Reset()
	}
	return world.Trace, nil
}

// RunPipeline executes iters iterations through the given pipeline stages
// on the compiled backend, run to completion per iteration (the same
// trace-order-preserving discipline as interp.RunPipeline).
func RunPipeline(stages []*ir.Program, world *interp.World, iters int) ([]interp.Event, error) {
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
	ctx := interp.NewIterCtx()
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

// emitEv routes an observable event the way the interpreter does: into the
// iteration's deferred buffer when the context asks for it, else straight
// onto the shared World trace.
func (m *Runner) emitEv(e interp.Event) {
	if m.ctx.DeferEvents {
		m.ctx.Events = append(m.ctx.Events, e)
		return
	}
	m.World.EmitEvent(e)
}

// edge is one resolved CFG edge: the parallel phi moves the edge performs
// and the block index it lands on. A nil-err edge with no moves is
// "trivial" and folds to a bare constant in the terminator closure.
type edge struct {
	srcs []int // phi source registers, read first (parallel semantics)
	dsts []int // phi destination registers
	err  error // set when a phi lacks a value for this predecessor
	to   int   // target block index
}

func (e edge) trivial() bool { return e.err == nil && len(e.srcs) == 0 }

// take performs the edge's phi moves (reads before writes, via the shared
// scratch buffer) and returns the target block index.
func (m *Runner) take(e *edge) int {
	if e.err != nil {
		m.err = e.err
		return pcErr
	}
	regs, buf := m.regs, m.phiBuf
	for i, s := range e.srcs {
		buf[i] = regs[s]
	}
	for i, d := range e.dsts {
		regs[d] = buf[i]
	}
	return e.to
}

// compiler carries the layout and analysis results computed before the
// closures are emitted.
type compiler struct {
	f       *ir.Func
	nPhis   []int // block ID -> number of leading phis
	termIdx []int // block ID -> index of the first control-transfer instruction, or -1

	// known marks registers whose single writer computes a value fixed at
	// lowering time, held in val; preload marks the subset every read of
	// which is ordered after that writer, so the frame can hold the value
	// from compile time on.
	known   []bool
	preload []bool
	val     []int64
	// readers counts each register's live reads: instruction operands up
	// to and including the terminator, and phi arguments.
	readers []int

	binds map[*ir.Array]int
}

// compile lowers the program into the block-fused closure form. The first
// pass lays out the blocks — leading phi counts and the first control
// transfer, past which the interpreter never executes — then the constant
// analysis fills the frame, the reset analysis picks the registers zeroed
// per iteration, and the second pass emits the specialized closures with
// all targets resolved.
func (m *Runner) compile() {
	f := m.Prog.Func
	m.name = f.Name
	m.regs = make([]int64, f.NumRegs)

	c := &compiler{
		f:       f,
		nPhis:   make([]int, len(f.Blocks)),
		termIdx: make([]int, len(f.Blocks)),
		binds:   make(map[*ir.Array]int),
	}
	maxPhi := 0
	for i, b := range f.Blocks {
		n := 0
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			n++
		}
		c.nPhis[i] = n
		if n > maxPhi {
			maxPhi = n
		}
		// The live region ends at the first control transfer: the
		// interpreter leaves the block there, so anything after it is
		// dead code (usually there is exactly one, in last position).
		c.termIdx[i] = -1
		for idx := n; idx < len(b.Instrs); idx++ {
			op := b.Instrs[idx].Op
			if op == ir.OpJmp || op == ir.OpBr || op == ir.OpSwitch || op == ir.OpRet {
				c.termIdx[i] = idx
				break
			}
		}
	}
	m.phiBuf = make([]int64, maxPhi)
	c.readers = make([]int, f.NumRegs)
	c.forEachRead(func(r, _, _ int) { c.readers[r]++ })
	c.analyzePreload()
	for r, ok := range c.preload {
		if ok {
			m.regs[r] = c.val[r]
		}
	}
	m.reset = c.analyzeReset()

	m.blocks = make([]block, len(f.Blocks))
	for i, b := range f.Blocks {
		end := c.termIdx[i]
		if end < 0 {
			end = len(b.Instrs)
		}
		bl := &m.blocks[i]
		fused := c.fusedCompare(i)
		for idx := c.nPhis[i]; idx < end; idx++ {
			in := b.Instrs[idx]
			fn := m.compileInstr(c, b, in)
			bl.seq = append(bl.seq, fn)
			if idx == fused || c.preloaded(in.Dst) {
				continue // the fused terminator or the frame does its work
			}
			bl.body = append(bl.body, fn)
		}
		switch ti := c.termIdx[i]; {
		case fused >= 0:
			bl.term = m.compileFusedBr(c, b.Instrs[fused], b.Instrs[ti])
			bl.termCost = 1
		case ti >= 0:
			bl.term = m.compileTerm(c, b, b.Instrs[ti])
			bl.termCost = 1
		default:
			// The interpreter raises this after the body, without
			// consuming a step — hence termCost 0.
			err := fmt.Errorf("%s: b%d fell off the end without a terminator", f.Name, b.ID)
			bl.term = func(m *Runner) int { m.err = err; return pcErr }
		}
		bl.cost = len(bl.seq) + bl.termCost
	}

	m.entry = f.Entry
	// The virtual predecessor -1 edge: trivially the entry block, or —
	// when the entry block opens with phis — the moves (or the
	// interpreter's no-value-for-predecessor error) run by RunIteration
	// before dispatch starts.
	m.entryEdge = c.planEdge(-1, f.Entry)
	m.localBind = make([][]int64, len(m.localArrs))
}

// preloaded reports whether reg is a preloaded constant register.
func (c *compiler) preloaded(reg int) bool {
	return reg >= 0 && reg < len(c.preload) && c.preload[reg]
}

// imm returns reg's value when it is preloaded: every read of it sees that
// constant, so a closure may capture the value instead of the slot.
func (c *compiler) imm(reg int) (int64, bool) {
	if c.preloaded(reg) {
		return c.val[reg], true
	}
	return 0, false
}

// foldable reports whether an instruction with this op and operand count
// can be evaluated at lowering time from constant operands. Div and mod
// are left to run time.
func foldable(op ir.Op, nArgs int) bool {
	switch {
	case op == ir.OpConst:
		return true
	case op == ir.OpCopy || op.IsUnary():
		return nArgs >= 1
	case op.IsBinary():
		return nArgs >= 2 && op != ir.OpDiv && op != ir.OpMod
	}
	return false
}

// fold evaluates a foldable op on constant operands with the interpreter's
// total semantics (masked shifts, 0/1 comparisons).
func fold(in *ir.Instr, val []int64) int64 {
	var a, b int64
	if len(in.Args) > 0 {
		a = val[in.Args[0]]
	}
	if len(in.Args) > 1 {
		b = val[in.Args[1]]
	}
	switch in.Op {
	case ir.OpConst:
		return in.Imm
	case ir.OpCopy:
		return a
	case ir.OpNeg:
		return -a
	case ir.OpNot:
		return b2i(a == 0)
	case ir.OpBNot:
		return ^a
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpShl:
		return a << (uint64(b) & 63)
	case ir.OpShr:
		return a >> (uint64(b) & 63)
	case ir.OpEq:
		return b2i(a == b)
	case ir.OpNe:
		return b2i(a != b)
	case ir.OpLt:
		return b2i(a < b)
	case ir.OpLe:
		return b2i(a <= b)
	case ir.OpGt:
		return b2i(a > b)
	case ir.OpGe:
		return b2i(a >= b)
	}
	panic("exec: fold on a non-foldable op") // unreachable: guarded by foldable
}

// afterEnd is the instruction index of a phi argument's read: it happens
// on the edge, after everything in the predecessor block.
const afterEnd = math.MaxInt

// forEachRead calls fn for every live register read: each operand of the
// instructions from the leading phis up to and including the terminator
// (branch conditions and switch values are reads), at (block, index), and
// each phi argument at (predecessor, afterEnd). Out-of-range registers are
// skipped.
func (c *compiler) forEachRead(fn func(reg, blk, idx int)) {
	n := c.f.NumRegs
	for bi, b := range c.f.Blocks {
		for idx := 0; idx < c.nPhis[bi]; idx++ {
			in := b.Instrs[idx]
			for j, p := range in.PhiPreds {
				if j < len(in.Args) && in.Args[j] >= 0 && in.Args[j] < n {
					fn(in.Args[j], p, afterEnd)
				}
			}
		}
		end := c.termIdx[bi] + 1
		if end == 0 {
			end = len(b.Instrs)
		}
		for idx := c.nPhis[bi]; idx < end; idx++ {
			for _, r := range b.Instrs[idx].Args {
				if r >= 0 && r < n {
					fn(r, bi, idx)
				}
			}
		}
	}
}

// analyzePreload finds the registers that hold one lowering-time constant
// whenever read. A register is known when its only live writer is an
// OpConst, or a foldable op whose operands are all known and are read after
// their own writers — later in the same block, or in a block the writer's
// block dominates — iterated to a fixpoint. A known register is preloaded
// when every live read of it is ordered after its writer the same way (a
// phi argument reads on its edge, i.e. at the end of the predecessor).
// Preloaded values are written into the frame once at compile time and
// their writers dropped from the hot body; a known register with some
// unordered read keeps its writer, lowered to a constant store.
//
// Step accounting is unaffected: the writer still counts in the block's
// cost, and the exact path still executes it (rewriting the same value).
// Reads the analysis cannot order — including entry-block phis fed by the
// virtual predecessor -1, which the interpreter services from the zeroed
// frame — disqualify the register.
func (c *compiler) analyzePreload() {
	f := c.f
	n := f.NumRegs
	c.known = make([]bool, n)
	c.preload = make([]bool, n)
	c.val = make([]int64, n)
	if n == 0 {
		return
	}
	wBlk := make([]int, n)
	wIdx := make([]int, n)
	wIn := make([]*ir.Instr, n) // the sole writer, when it is foldable
	wCount := make([]int, n)

	record := func(reg, blk, idx int, in *ir.Instr) {
		if reg < 0 || reg >= n {
			return
		}
		wCount[reg]++
		wBlk[reg], wIdx[reg] = blk, idx
		wIn[reg] = nil
		if in != nil && foldable(in.Op, len(in.Args)) {
			wIn[reg] = in
		}
	}
	candidates := false
	for bi, b := range f.Blocks {
		for idx := 0; idx < c.nPhis[bi]; idx++ {
			record(b.Instrs[idx].Dst, bi, idx, nil)
		}
		end := c.termIdx[bi] // terminators never write registers
		if end < 0 {
			end = len(b.Instrs)
		}
		for idx := c.nPhis[bi]; idx < end; idx++ {
			in := b.Instrs[idx]
			record(in.Dst, bi, idx, in)
			for _, d := range in.Dsts {
				record(d, bi, idx, nil)
			}
			candidates = candidates || in.Op == ir.OpConst
		}
	}
	if !candidates {
		return // no constant, so nothing can fold
	}

	g := graph.New(len(f.Blocks))
	for bi := range f.Blocks {
		if ti := c.termIdx[bi]; ti >= 0 {
			for _, t := range f.Blocks[bi].Instrs[ti].Targets {
				g.AddEdge(bi, t)
			}
		}
	}
	dom := graph.Dominators(g, f.Entry)
	ordered := func(r, blk, idx int) bool {
		if blk < 0 {
			return false
		}
		if blk == wBlk[r] {
			return idx > wIdx[r]
		}
		return dom.Dominates(wBlk[r], blk)
	}

	for changed := true; changed; {
		changed = false
		for r, in := range wIn {
			if c.known[r] || in == nil || wCount[r] != 1 {
				continue
			}
			ok := true
			for _, a := range in.Args {
				if a < 0 || a >= n || !c.known[a] || !ordered(a, wBlk[r], wIdx[r]) {
					ok = false
					break
				}
			}
			if ok {
				c.val[r] = fold(in, c.val)
				c.known[r] = true
				changed = true
			}
		}
	}

	copy(c.preload, c.known)
	c.forEachRead(func(r, blk, idx int) {
		if c.preload[r] && !ordered(r, blk, idx) {
			c.preload[r] = false
		}
	})
}

// analyzeReset returns the registers that some path through one iteration
// can read before writing them: the only ones RunIteration must zero to
// reproduce the interpreter's zeroed frame. It is a forward must-analysis
// of "definitely written": a block's entry set is the intersection over
// its incoming edges (the virtual -1 edge included) of the predecessor's
// exit set plus the edge's phi destinations, and preloaded registers are
// in every set, since the frame holds their constant throughout. Each read
// — operands, terminator conditions, phi sources on edges, SendLS slots —
// of a register outside the set at that point puts it in the reset set.
//
// The write sets are exactly what the compiled closures store: an
// instruction's Dst (for value ops and calls with a result) or RecvLS's
// Dsts. A closure that fails instead of writing ends the iteration, so no
// read after it runs. A comparison fused into its branch skips its store
// on the fast path, but its only reader is that branch, which recomputes
// the comparison rather than reading the register.
func (c *compiler) analyzeReset() []int {
	f := c.f
	n := f.NumRegs
	in := make([]*bitset.Set, len(f.Blocks)) // nil: not reached yet
	start := bitset.New(n)
	for r, ok := range c.preload {
		if ok {
			start.Set(r)
		}
	}
	writes := func(ins *ir.Instr, def *bitset.Set) {
		for _, d := range ins.Defines() {
			if d >= 0 && d < n {
				def.Set(d)
			}
		}
	}
	// walk runs block b's live region from def, calling read for each
	// operand read at the point it happens, and returns the exit set.
	walk := func(bi int, def *bitset.Set, read func(r int, def *bitset.Set)) *bitset.Set {
		def = def.Copy()
		b := f.Blocks[bi]
		end := c.termIdx[bi] + 1
		if end == 0 {
			end = len(b.Instrs)
		}
		for idx := c.nPhis[bi]; idx < end; idx++ {
			ins := b.Instrs[idx]
			if read != nil {
				for _, r := range ins.Args {
					read(r, def)
				}
			}
			writes(ins, def)
		}
		return def
	}
	succs := func(bi int) []int {
		if ti := c.termIdx[bi]; ti >= 0 {
			return f.Blocks[bi].Instrs[ti].Targets
		}
		return nil
	}
	// along returns the set entering e's target, or nil for an edge that
	// fails instead of arriving.
	along := func(e edge, def *bitset.Set) *bitset.Set {
		if e.err != nil {
			return nil
		}
		def = def.Copy()
		for _, d := range e.dsts {
			if d >= 0 && d < n {
				def.Set(d)
			}
		}
		return def
	}

	entry := c.planEdge(-1, f.Entry)
	var work []int
	if s := along(entry, start); s != nil {
		in[f.Entry] = s
		work = append(work, f.Entry)
	}
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		out := walk(bi, in[bi], nil)
		for _, t := range succs(bi) {
			s := along(c.planEdge(bi, t), out)
			switch {
			case s == nil:
			case in[t] == nil:
				in[t] = s
				work = append(work, t)
			default:
				before := in[t].Count()
				in[t].Intersect(s)
				if in[t].Count() != before {
					work = append(work, t)
				}
			}
		}
	}

	reset := bitset.New(n)
	read := func(r int, def *bitset.Set) {
		if r >= 0 && r < n && !def.Has(r) {
			reset.Set(r)
		}
	}
	for _, s := range entry.srcs {
		read(s, start)
	}
	for bi := range f.Blocks {
		if in[bi] == nil {
			continue // unreachable: never runs
		}
		out := walk(bi, in[bi], read)
		for _, t := range succs(bi) {
			for _, s := range c.planEdge(bi, t).srcs {
				read(s, out)
			}
		}
	}
	return reset.Slice()
}

// fusedCompare returns the index of the comparison block bi's OpBr can
// absorb, or -1. It must immediately precede the branch, compute the
// branch condition, and have no other reader, and both edges must be free
// of phi moves.
func (c *compiler) fusedCompare(bi int) int {
	ti := c.termIdx[bi]
	if ti < 1 || ti-1 < c.nPhis[bi] {
		return -1
	}
	b := c.f.Blocks[bi]
	br, cmp := b.Instrs[ti], b.Instrs[ti-1]
	if br.Op != ir.OpBr || cmp.Op < ir.OpEq || cmp.Op > ir.OpGe || len(cmp.Args) < 2 {
		return -1
	}
	d := cmp.Dst
	if d != br.Args[0] || d < 0 || d >= len(c.readers) || c.readers[d] != 1 {
		return -1
	}
	for _, t := range br.Targets[:2] {
		if !c.planEdge(bi, t).trivial() {
			return -1
		}
	}
	return ti - 1
}

// planEdge resolves the phi moves of the pred -> succ edge.
func (c *compiler) planEdge(pred, succ int) edge {
	b := c.f.Blocks[succ]
	e := edge{to: succ}
	for i := 0; i < c.nPhis[succ]; i++ {
		in := b.Instrs[i]
		found := false
		for j, p := range in.PhiPreds {
			if p == pred {
				e.srcs = append(e.srcs, in.Args[j])
				e.dsts = append(e.dsts, in.Dst)
				found = true
				break
			}
		}
		if !found {
			return edge{
				err: fmt.Errorf("%s: b%d: phi has no value for predecessor b%d", c.f.Name, succ, pred),
				to:  pcErr,
			}
		}
	}
	return e
}

// bindLocal returns the per-iteration bind slot for a local array,
// allocating one on first reference.
func (m *Runner) bindLocal(c *compiler, a *ir.Array) int {
	if slot, ok := c.binds[a]; ok {
		return slot
	}
	slot := len(m.localArrs)
	c.binds[a] = slot
	m.localArrs = append(m.localArrs, a)
	return slot
}

// b2i converts a comparison result to the IR's 0/1 encoding.
func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// compileTerm emits the control-transfer closure for a block's terminator,
// with the phi moves of each outgoing edge folded in.
func (m *Runner) compileTerm(c *compiler, blk *ir.Block, in *ir.Instr) instrFn {
	regs := m.regs
	switch in.Op {
	case ir.OpJmp:
		e := c.planEdge(blk.ID, in.Targets[0])
		if e.trivial() {
			to := e.to
			return func(m *Runner) int { return to }
		}
		return func(m *Runner) int { return m.take(&e) }
	case ir.OpBr:
		pc := &regs[in.Args[0]]
		et := c.planEdge(blk.ID, in.Targets[0])
		ee := c.planEdge(blk.ID, in.Targets[1])
		if et.trivial() && ee.trivial() {
			tb, eb := et.to, ee.to
			return func(m *Runner) int {
				if *pc != 0 {
					return tb
				}
				return eb
			}
		}
		return func(m *Runner) int {
			if *pc != 0 {
				return m.take(&et)
			}
			return m.take(&ee)
		}
	case ir.OpSwitch:
		pv := &regs[in.Args[0]]
		cases := append([]int64(nil), in.Cases...)
		edges := make([]edge, len(in.Targets))
		for i, t := range in.Targets {
			edges[i] = c.planEdge(blk.ID, t)
		}
		return func(m *Runner) int {
			x := *pv
			for i, cv := range cases {
				if x == cv {
					return m.take(&edges[i])
				}
			}
			return m.take(&edges[len(edges)-1])
		}
	case ir.OpRet:
		return func(m *Runner) int { return pcRet }
	}
	panic("exec: compileTerm on a non-terminator") // unreachable: termIdx selects control ops only
}

// mirror returns the op that computes the same result with its operands
// swapped, for the ops that have one.
func mirror(op ir.Op) (ir.Op, bool) {
	switch op {
	case ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpEq, ir.OpNe:
		return op, true
	case ir.OpLt:
		return ir.OpGt, true
	case ir.OpLe:
		return ir.OpGe, true
	case ir.OpGt:
		return ir.OpLt, true
	case ir.OpGe:
		return ir.OpLe, true
	}
	return op, false
}

// operands resolves a binary instruction's operands for lowering. When the
// right operand is preloaded, or the left one is and the op can be
// mirrored, it returns the op to apply as a <op> k with the register operand
// in a and the constant in k; otherwise imm is false and the op reads a and
// b.
func (c *compiler) operands(in *ir.Instr) (op ir.Op, a, b int, k int64, imm bool) {
	op, a, b = in.Op, in.Args[0], in.Args[1]
	if kb, ok := c.imm(b); ok {
		return op, a, b, kb, true
	}
	if ka, ok := c.imm(a); ok {
		if mop, ok := mirror(op); ok {
			return mop, b, a, ka, true
		}
	}
	return op, a, b, 0, false
}

// compileFusedBr emits one terminator closure for a comparison and the
// OpBr that reads its result (see fusedCompare): it compares and returns
// the taken successor without storing the comparison's register, whose
// only reader is this branch. Both edges are trivial.
func (m *Runner) compileFusedBr(c *compiler, cmp, br *ir.Instr) instrFn {
	tb, eb := br.Targets[0], br.Targets[1]
	op, a, b, k, imm := c.operands(cmp)
	pa, pb := &m.regs[a], &m.regs[b]
	if imm {
		switch op {
		case ir.OpEq:
			return func(m *Runner) int {
				if *pa == k {
					return tb
				}
				return eb
			}
		case ir.OpNe:
			return func(m *Runner) int {
				if *pa != k {
					return tb
				}
				return eb
			}
		case ir.OpLt:
			return func(m *Runner) int {
				if *pa < k {
					return tb
				}
				return eb
			}
		case ir.OpLe:
			return func(m *Runner) int {
				if *pa <= k {
					return tb
				}
				return eb
			}
		case ir.OpGt:
			return func(m *Runner) int {
				if *pa > k {
					return tb
				}
				return eb
			}
		case ir.OpGe:
			return func(m *Runner) int {
				if *pa >= k {
					return tb
				}
				return eb
			}
		}
	}
	switch op {
	case ir.OpEq:
		return func(m *Runner) int {
			if *pa == *pb {
				return tb
			}
			return eb
		}
	case ir.OpNe:
		return func(m *Runner) int {
			if *pa != *pb {
				return tb
			}
			return eb
		}
	case ir.OpLt:
		return func(m *Runner) int {
			if *pa < *pb {
				return tb
			}
			return eb
		}
	case ir.OpLe:
		return func(m *Runner) int {
			if *pa <= *pb {
				return tb
			}
			return eb
		}
	case ir.OpGt:
		return func(m *Runner) int {
			if *pa > *pb {
				return tb
			}
			return eb
		}
	case ir.OpGe:
		return func(m *Runner) int {
			if *pa >= *pb {
				return tb
			}
			return eb
		}
	}
	panic("exec: compileFusedBr on a non-comparison") // unreachable: fusedCompare selects comparisons only
}

// compileInstr emits the specialized closure for one straight-line (non-phi,
// non-terminator) instruction. Operand and destination registers are
// captured as direct *int64 pointers into the frame, so the closures touch
// memory without slice-header or bounds-check overhead; on success they
// return a don't-care non-pcErr value.
func (m *Runner) compileInstr(c *compiler, blk *ir.Block, in *ir.Instr) instrFn {
	regs := m.regs
	if d := in.Dst; d >= 0 && d < len(c.known) && c.known[d] {
		// The single writer of a known register: its value was folded
		// at lowering time, so it is a constant store (the exact path
		// rewrites a preloaded register's frame value with it).
		pd, v := &regs[d], c.val[d]
		return func(m *Runner) int { *pd = v; return 0 }
	}

	switch in.Op {
	case ir.OpConst:
		pd, imm := &regs[in.Dst], in.Imm
		return func(m *Runner) int { *pd = imm; return 0 }
	case ir.OpCopy:
		pd, pa := &regs[in.Dst], &regs[in.Args[0]]
		return func(m *Runner) int { *pd = *pa; return 0 }

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		op, a, b, k, imm := c.operands(in)
		pd, pa := &regs[in.Dst], &regs[a]
		if imm {
			if fn := binaryImm(op, pd, pa, k); fn != nil {
				return fn
			}
		}
		return binary(op, pd, pa, &regs[b])

	case ir.OpNeg:
		pd, pa := &regs[in.Dst], &regs[in.Args[0]]
		return func(m *Runner) int { *pd = -*pa; return 0 }
	case ir.OpNot:
		pd, pa := &regs[in.Dst], &regs[in.Args[0]]
		return func(m *Runner) int { *pd = b2i(*pa == 0); return 0 }
	case ir.OpBNot:
		pd, pa := &regs[in.Dst], &regs[in.Args[0]]
		return func(m *Runner) int { *pd = ^*pa; return 0 }

	case ir.OpLoad:
		arr := in.Arr
		if arr == nil {
			// Defer the interpreter's nil-array dereference to execution
			// time (a hand-built program only fails if the path runs).
			return func(m *Runner) int { _ = arr.Size; return 0 }
		}
		pd, pidx, size := &regs[in.Dst], &regs[in.Args[0]], arr.Size
		if arr.Persistent {
			st := m.persistent.Get(arr)
			return func(m *Runner) int { *pd = st[wrapIndex(*pidx, size)]; return 0 }
		}
		slot := m.bindLocal(c, arr)
		return func(m *Runner) int { *pd = m.localBind[slot][wrapIndex(*pidx, size)]; return 0 }
	case ir.OpStore:
		arr := in.Arr
		if arr == nil {
			return func(m *Runner) int { _ = arr.Size; return 0 }
		}
		pidx, pval, size := &regs[in.Args[0]], &regs[in.Args[1]], arr.Size
		if arr.Persistent {
			st := m.persistent.Get(arr)
			return func(m *Runner) int { st[wrapIndex(*pidx, size)] = *pval; return 0 }
		}
		slot := m.bindLocal(c, arr)
		return func(m *Runner) int { m.localBind[slot][wrapIndex(*pidx, size)] = *pval; return 0 }

	case ir.OpCall:
		return m.compileCall(c, in)

	case ir.OpSendLS:
		ptrs := make([]*int64, len(in.Args))
		for i, a := range in.Args {
			ptrs[i] = &regs[a]
		}
		return func(m *Runner) int {
			vals := m.sendDst
			if cap(vals) >= len(ptrs) {
				vals = vals[:len(ptrs)]
			} else {
				vals = make([]int64, len(ptrs))
			}
			for i, p := range ptrs {
				vals[i] = *p
			}
			m.sent = vals
			return 0
		}
	case ir.OpRecvLS:
		ptrs := make([]*int64, len(in.Dsts))
		for i, d := range in.Dsts {
			ptrs[i] = &regs[d]
		}
		name := m.name
		return func(m *Runner) int {
			if len(m.recv) != len(ptrs) {
				m.err = fmt.Errorf("%s: recvls expects %d slots, got %d", name, len(ptrs), len(m.recv))
				return pcErr
			}
			for i, p := range ptrs {
				*p = m.recv[i]
			}
			return 0
		}
	}

	// Everything else is what the interpreter's evalPure default would
	// reject (a non-leading phi, an invalid op): reproduce its wrapped
	// error, but only if the instruction is ever reached.
	err := fmt.Errorf("%s: b%d: cannot evaluate %s", m.name, blk.ID, in)
	return func(m *Runner) int { m.err = err; return pcErr }
}

// binaryImm emits the closure computing *pd = *pa op k, or nil for an op
// with no immediate form (div, mod).
func binaryImm(op ir.Op, pd, pa *int64, k int64) instrFn {
	switch op {
	case ir.OpAdd:
		return func(m *Runner) int { *pd = *pa + k; return 0 }
	case ir.OpSub:
		return func(m *Runner) int { *pd = *pa - k; return 0 }
	case ir.OpMul:
		return func(m *Runner) int { *pd = *pa * k; return 0 }
	case ir.OpAnd:
		return func(m *Runner) int { *pd = *pa & k; return 0 }
	case ir.OpOr:
		return func(m *Runner) int { *pd = *pa | k; return 0 }
	case ir.OpXor:
		return func(m *Runner) int { *pd = *pa ^ k; return 0 }
	case ir.OpShl:
		s := uint64(k) & 63
		return func(m *Runner) int { *pd = *pa << s; return 0 }
	case ir.OpShr:
		s := uint64(k) & 63
		return func(m *Runner) int { *pd = *pa >> s; return 0 }
	case ir.OpEq:
		return func(m *Runner) int { *pd = b2i(*pa == k); return 0 }
	case ir.OpNe:
		return func(m *Runner) int { *pd = b2i(*pa != k); return 0 }
	case ir.OpLt:
		return func(m *Runner) int { *pd = b2i(*pa < k); return 0 }
	case ir.OpLe:
		return func(m *Runner) int { *pd = b2i(*pa <= k); return 0 }
	case ir.OpGt:
		return func(m *Runner) int { *pd = b2i(*pa > k); return 0 }
	case ir.OpGe:
		return func(m *Runner) int { *pd = b2i(*pa >= k); return 0 }
	}
	return nil
}

// binary emits the closure computing *pd = *pa op *pb with the
// interpreter's total semantics.
func binary(op ir.Op, pd, pa, pb *int64) instrFn {
	switch op {
	case ir.OpAdd:
		return func(m *Runner) int { *pd = *pa + *pb; return 0 }
	case ir.OpSub:
		return func(m *Runner) int { *pd = *pa - *pb; return 0 }
	case ir.OpMul:
		return func(m *Runner) int { *pd = *pa * *pb; return 0 }
	case ir.OpDiv:
		return func(m *Runner) int {
			a, b := *pa, *pb
			switch {
			case b == 0:
				*pd = 0
			case a == -a && b == -1:
				// Avoid the single overflowing case MinInt64 / -1.
				*pd = a
			default:
				*pd = a / b
			}
			return 0
		}
	case ir.OpMod:
		return func(m *Runner) int {
			a, b := *pa, *pb
			switch {
			case b == 0:
				*pd = 0
			case a == -a && b == -1:
				*pd = 0
			default:
				*pd = a % b
			}
			return 0
		}
	case ir.OpAnd:
		return func(m *Runner) int { *pd = *pa & *pb; return 0 }
	case ir.OpOr:
		return func(m *Runner) int { *pd = *pa | *pb; return 0 }
	case ir.OpXor:
		return func(m *Runner) int { *pd = *pa ^ *pb; return 0 }
	case ir.OpShl:
		return func(m *Runner) int { *pd = *pa << (uint64(*pb) & 63); return 0 }
	case ir.OpShr:
		return func(m *Runner) int { *pd = *pa >> (uint64(*pb) & 63); return 0 }
	case ir.OpEq:
		return func(m *Runner) int { *pd = b2i(*pa == *pb); return 0 }
	case ir.OpNe:
		return func(m *Runner) int { *pd = b2i(*pa != *pb); return 0 }
	case ir.OpLt:
		return func(m *Runner) int { *pd = b2i(*pa < *pb); return 0 }
	case ir.OpLe:
		return func(m *Runner) int { *pd = b2i(*pa <= *pb); return 0 }
	case ir.OpGt:
		return func(m *Runner) int { *pd = b2i(*pa > *pb); return 0 }
	case ir.OpGe:
		return func(m *Runner) int { *pd = b2i(*pa >= *pb); return 0 }
	}
	panic("exec: binary on a non-binary op") // unreachable: callers pass binary ops only
}

// nop is the closure of an instruction with no effect.
func nop(m *Runner) int { return 0 }

// pktWord mirrors the interpreter's pkt_word: the big-endian 32-bit word at
// off, with bytes outside the packet reading as zero.
func pktWord(pkt []byte, off int64) int64 {
	if off >= 0 && off <= int64(len(pkt))-4 {
		p := pkt[off : off+4]
		return int64(p[0])<<24 | int64(p[1])<<16 | int64(p[2])<<8 | int64(p[3])
	}
	var v int64
	for i := int64(0); i < 4; i++ {
		v <<= 8
		if o := off + i; o >= 0 && o < int64(len(pkt)) {
			v |= int64(pkt[o])
		}
	}
	return v
}

// compileCall specializes an intrinsic call: the name is resolved once here
// instead of once per execution, and each intrinsic becomes a dedicated
// closure over direct pointers to its argument and destination slots. The
// semantics of every intrinsic match interp.Runner.intrinsic exactly; a nil
// destination pointer mirrors the interpreter's in.Dst != ir.NoReg check.
func (m *Runner) compileCall(c *compiler, in *ir.Instr) instrFn {
	regs := m.regs
	var pd *int64
	if in.Dst != ir.NoReg {
		pd = &regs[in.Dst]
	}
	argp := func(i int) *int64 {
		return &regs[in.Args[i]]
	}

	switch in.Call {
	case "pkt_rx":
		return func(m *Runner) int {
			ctx := m.ctx
			var p []byte
			if ctx.HasPending {
				p, ctx.Pending, ctx.HasPending = ctx.Pending, nil, false
			} else if !m.RxFromCtx {
				p = m.World.RxPacket()
			}
			if p == nil {
				ctx.Pkt, ctx.HasPkt, ctx.PktShared = nil, false, false
				if pd != nil {
					*pd = -1
				}
				return 0
			}
			buf := make([]byte, len(p))
			copy(buf, p)
			ctx.Pkt, ctx.HasPkt, ctx.PktShared = buf, true, false
			if pd != nil {
				*pd = int64(len(buf))
			}
			return 0
		}
	case "pkt_len":
		return func(m *Runner) int {
			if pd != nil {
				*pd = int64(len(m.ctx.Pkt))
			}
			return 0
		}
	case "pkt_byte":
		switch k, imm := c.imm(in.Args[0]); {
		case pd == nil:
			return nop // a read with no destination has no effect
		case imm && k < 0:
			return func(m *Runner) int { *pd = 0; return 0 }
		case imm:
			return func(m *Runner) int {
				if pkt := m.ctx.Pkt; k < int64(len(pkt)) {
					*pd = int64(pkt[k])
				} else {
					*pd = 0
				}
				return 0
			}
		}
		p0 := argp(0)
		return func(m *Runner) int {
			if off, pkt := *p0, m.ctx.Pkt; off >= 0 && off < int64(len(pkt)) {
				*pd = int64(pkt[off])
			} else {
				*pd = 0
			}
			return 0
		}
	case "pkt_word":
		if pd == nil {
			return nop
		}
		if k, ok := c.imm(in.Args[0]); ok {
			return func(m *Runner) int { *pd = pktWord(m.ctx.Pkt, k); return 0 }
		}
		p0 := argp(0)
		return func(m *Runner) int { *pd = pktWord(m.ctx.Pkt, *p0); return 0 }
	case "pkt_setbyte":
		p0, p1 := argp(0), argp(1)
		return func(m *Runner) int {
			off, val := *p0, *p1
			if off >= 0 && off < int64(len(m.ctx.Pkt)) {
				m.ctx.WritablePkt()[off] = byte(val)
			}
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	case "pkt_setword":
		p0, p1 := argp(0), argp(1)
		return func(m *Runner) int {
			off, val := *p0, *p1
			pkt := m.ctx.WritablePkt()
			for i := int64(0); i < 4; i++ {
				if o := off + i; o >= 0 && o < int64(len(pkt)) {
					pkt[o] = byte(val >> (8 * (3 - i)))
				}
			}
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	case "pkt_send":
		p0 := argp(0)
		return func(m *Runner) int {
			// The event takes the packet buffer itself; PktShared makes a
			// later write this iteration copy it first (copy on write).
			ctx := m.ctx
			pkt := ctx.Pkt
			if pkt == nil {
				pkt = []byte{} // the interpreter's copy of no packet is empty, not nil
			}
			ctx.PktShared = true
			m.emitEv(interp.Event{Kind: interp.EvSend, Val: *p0, Pkt: pkt})
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	case "pkt_drop":
		return func(m *Runner) int {
			m.emitEv(interp.Event{Kind: interp.EvDrop})
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	case "meta_get":
		p0 := argp(0)
		return func(m *Runner) int {
			if pd != nil {
				*pd = m.ctx.Meta[wrapIndex(*p0, len(m.ctx.Meta))]
			}
			return 0
		}
	case "meta_set":
		p0, p1 := argp(0), argp(1)
		return func(m *Runner) int {
			m.ctx.Meta[wrapIndex(*p0, len(m.ctx.Meta))] = *p1
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	case "rt_lookup":
		p0 := argp(0)
		return func(m *Runner) int {
			if m.World.RT4 == nil {
				if pd != nil {
					*pd = -1
				}
			} else {
				if pd != nil {
					*pd = m.World.RT4(*p0)
				}
			}
			return 0
		}
	case "rt6_lookup":
		p0, p1 := argp(0), argp(1)
		return func(m *Runner) int {
			if m.World.RT6 == nil {
				if pd != nil {
					*pd = -1
				}
			} else {
				if pd != nil {
					*pd = m.World.RT6(*p0, *p1)
				}
			}
			return 0
		}
	case "csum_fold":
		p0 := argp(0)
		return func(m *Runner) int {
			v := uint64(*p0) & 0xFFFFFFFF
			v = (v & 0xFFFF) + (v >> 16)
			v = (v & 0xFFFF) + (v >> 16)
			if pd != nil {
				*pd = int64(v)
			}
			return 0
		}
	case "hash_crc":
		p0 := argp(0)
		return func(m *Runner) int {
			v := uint64(*p0)
			v ^= v >> 33
			v *= 0xff51afd7ed558ccd
			v ^= v >> 33
			if pd != nil {
				*pd = int64(v & 0x7FFFFFFF)
			}
			return 0
		}
	case "q_put":
		p0, p1 := argp(0), argp(1)
		return func(m *Runner) int {
			q := *p0
			m.World.Queues[q] = append(m.World.Queues[q], *p1)
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	case "q_get":
		p0 := argp(0)
		return func(m *Runner) int {
			q := *p0
			vs := m.World.Queues[q]
			if len(vs) == 0 {
				if pd != nil {
					*pd = -1
				}
			} else {
				m.World.Queues[q] = vs[1:]
				if pd != nil {
					*pd = vs[0]
				}
			}
			return 0
		}
	case "q_len":
		p0 := argp(0)
		return func(m *Runner) int {
			if pd != nil {
				*pd = int64(len(m.World.Queues[*p0]))
			}
			return 0
		}
	case "trace":
		p0 := argp(0)
		return func(m *Runner) int {
			m.emitEv(interp.Event{Kind: interp.EvTrace, Val: *p0})
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	}

	err := fmt.Errorf("unknown intrinsic %q", in.Call)
	return func(m *Runner) int { m.err = err; return pcErr }
}
