package runtime

// White-box coverage of the token pool's hygiene: a token recycled
// through putToken/getToken must come back pristine, because the pool is
// shared across packets and a stale field would leak one packet's locals,
// metadata, or deferred events into another's iteration.

import (
	"testing"

	"repro/internal/interp"
)

// dirtyToken fills every per-iteration field of a token the way a stage
// execution would.
func dirtyToken(t *token) {
	t.ctx.Pkt, t.ctx.HasPkt = []byte{0xde, 0xad}, true
	t.ctx.Meta[0], t.ctx.Meta[15] = 42, -7
	loc := t.ctx.Local(0, 4)
	loc[0], loc[3] = 11, 13
	t.ctx.Pending, t.ctx.HasPending = []byte{0xbe, 0xef}, true
	t.ctx.DeferEvents = true
	t.ctx.Events = append(t.ctx.Events, interp.Event{Kind: interp.EvTrace, Val: 99})
	t.slots = []int64{1, 2, 3}
	t.spare = []int64{4, 5}
	t.iter = 17
	t.degradedAt = 2
	t.shard = 3
	t.dead = true
}

// checkPristine fails if any per-iteration state survived a reset.
func checkPristine(t *testing.T, tok *token) {
	t.Helper()
	ctx := tok.ctx
	if ctx.Pkt != nil || ctx.HasPkt {
		t.Errorf("recycled token leaks packet: Pkt=%v HasPkt=%v", ctx.Pkt, ctx.HasPkt)
	}
	if ctx.Meta != [16]int64{} {
		t.Errorf("recycled token leaks metadata: %v", ctx.Meta)
	}
	for i, v := range ctx.Local(0, 4) {
		if v != 0 {
			t.Errorf("recycled token leaks local array slot %d = %d", i, v)
		}
	}
	if ctx.Pending != nil || ctx.HasPending {
		t.Errorf("recycled token leaks pending packet: %v", ctx.Pending)
	}
	if len(ctx.Events) != 0 {
		t.Errorf("recycled token leaks deferred events: %v", ctx.Events)
	}
	// The live-set buffers keep their capacity across recycles — that
	// backing memory is the zero-copy handoff's working set — but their
	// visible length must be zero: OpRecvLS reads only the length OpSendLS
	// wrote this iteration, so truncated buffers can never leak a value.
	if len(tok.slots) != 0 {
		t.Errorf("recycled token leaks live-set slots: %v", tok.slots)
	}
	if len(tok.spare) != 0 {
		t.Errorf("recycled token leaks spare live-set buffer: %v", tok.spare)
	}
	if tok.iter != 0 || tok.degradedAt != 0 {
		t.Errorf("recycled token leaks control state: iter=%d degradedAt=%d", tok.iter, tok.degradedAt)
	}
	if tok.shard != 0 || tok.dead {
		t.Errorf("recycled token leaks shard routing state: shard=%d dead=%v", tok.shard, tok.dead)
	}
}

// TestTokenResetClearsIterationState checks reset directly: every field a
// stage execution can touch is returned to its zero state.
func TestTokenResetClearsIterationState(t *testing.T) {
	tok := &token{ctx: interp.NewIterCtx()}
	dirtyToken(tok)
	tok.reset()
	checkPristine(t, tok)
}

// TestBatchRecycleNeverLeaks drives the batch-granular fast path: whole
// retired batches handed back through recycleBatch must come out of
// takeToken pristine and in deferred-events mode, exactly like the
// per-token pool path they replace on the serve hot loop.
func TestBatchRecycleNeverLeaks(t *testing.T) {
	e := &engine{freeBatches: make(chan []*token, 2)}
	e.tokPool.New = func() any { return &token{ctx: interp.NewIterCtx()} }
	e.batchPool.New = func() any { return make([]*token, 0, 8) }
	for round := 0; round < 50; round++ {
		b := e.getBatch()
		for i := 0; i < 4; i++ {
			tok := e.takeToken()
			if !tok.ctx.DeferEvents {
				t.Fatal("takeToken must hand out tokens in deferred-events mode")
			}
			tok.ctx.DeferEvents = false // neutralize for checkPristine's event check
			checkPristine(t, tok)
			tok.ctx.DeferEvents = true
			dirtyToken(tok)
			b = append(b, tok)
		}
		e.recycleBatch(b)
	}
}

// TestTokenPoolRecycleNeverLeaks drives the engine's actual pool path:
// tokens dirtied by a (simulated) packet iteration and returned via
// putToken must be pristine when getToken hands them out again, no matter
// how many recycles happen. sync.Pool may hand back either a recycled or
// a fresh token; both must be indistinguishable.
func TestTokenPoolRecycleNeverLeaks(t *testing.T) {
	e := &engine{}
	e.tokPool.New = func() any { return &token{ctx: interp.NewIterCtx()} }
	for round := 0; round < 100; round++ {
		tok := e.getToken()
		if !tok.ctx.DeferEvents {
			t.Fatal("getToken must hand out tokens in deferred-events mode")
		}
		tok.ctx.DeferEvents = false // neutralize for checkPristine's event check
		checkPristine(t, tok)
		dirtyToken(tok)
		e.putToken(tok)
	}
}
