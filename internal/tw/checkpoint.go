package tw

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ggpdes/internal/rng"
)

// Checkpoint support: pausing a run at a GVT publication, quiescing the
// engine onto its canonical committed cut, capturing that cut as plain
// serializable data, and rebuilding an engine from a capture.
//
// The engine cannot snapshot mid-speculation state — live goroutine
// stacks (the simulated threads), splay-tree shapes and freelist
// contents are not serializable, and none of them are part of the
// committed trajectory anyway. Instead a checkpointed run executes as a
// chain of segments: the driver pauses the engine at a GVT round
// boundary, lets the machine wind down through the normal completion
// path, rolls back all speculation (Quiesce), and captures exactly the
// committed state: LP states and RNG positions, the pending events at
// or above GVT, and the cumulative statistics. A fresh engine built
// from the capture continues the run; because the driver performs the
// same quiesce/capture/rebuild cycle whether or not the process is
// actually killed at the boundary, a resumed run is byte-identical to
// an uninterrupted one by construction.

// errNotCheckpointModel is shared by Capture and NewEngineFromState.
var errNotCheckpointModel = errors.New("tw: model does not implement CheckpointModel")

// CheckpointModel is a Model whose LP states can be serialized. All
// bundled models implement it; checkpointing requires it because LP
// state is opaque to the engine.
type CheckpointModel interface {
	Model
	// EncodeState serializes an LP state this model created.
	EncodeState(s State) ([]byte, error)
	// DecodeState rebuilds an LP state from EncodeState's output.
	DecodeState(data []byte) (State, error)
}

// EventRecord is one pending event at the committed cut, reduced to the
// fields that define it. Rollback bookkeeping (snapshots, sent lists,
// undo words) is empty for a pending event by construction.
type EventRecord struct {
	Ts   VT     `json:"ts"`
	Seq  uint64 `json:"seq"`
	Src  int    `json:"src"`
	Dst  int    `json:"dst"`
	Kind uint8  `json:"kind"`
	A    int64  `json:"a,omitempty"`
	B    int64  `json:"b,omitempty"`
}

// LPRecord is one logical process at the committed cut.
type LPRecord struct {
	State []byte    `json:"state"`
	Rng   rng.State `json:"rng"`
	LVT   VT        `json:"lvt"`
}

// EngineState is the full Time Warp state at a quiesced GVT boundary —
// everything a fresh engine needs to continue the trajectory.
type EngineState struct {
	// Seq is the global event sequence counter.
	Seq uint64 `json:"seq"`
	// GVT is the published Global Virtual Time of the boundary round.
	GVT VT `json:"gvt"`
	// PeakUncommitted carries the run's speculative-memory high-water
	// mark across segments.
	PeakUncommitted int `json:"peak_uncommitted"`
	// LPs holds every logical process, indexed by LP id.
	LPs []LPRecord `json:"lps"`
	// Pending holds each peer's pending events in (Ts, Seq) order.
	Pending [][]EventRecord `json:"pending"`
	// PeerStats carries each peer's cumulative counters.
	PeerStats []PeerStats `json:"peer_stats"`
}

// Pause makes Done report true so every simulation thread exits its
// main loop at the next iteration — the same wind-down path as normal
// completion. The driver calls it from the OnGVT hook at a checkpoint
// boundary.
func (e *Engine) Pause() { e.paused = true }

// Paused reports whether Pause was called.
func (e *Engine) Paused() bool { return e.paused }

// nopCPU discards cost accounting; quiesce runs after the machine has
// stopped, so its work is not part of the simulated timeline.
type nopCPU struct{}

func (nopCPU) Work(uint64) {}

// Capture quiesces the engine onto its committed cut and serializes it.
// The engine is consumed: every speculative execution is rolled back,
// anti-message traffic is drained to a fixpoint, and the pending sets
// are emptied into the capture. Discard the engine afterwards.
func (e *Engine) Capture() (*EngineState, error) {
	e.quiesce()
	if e.uncommitted != 0 {
		return nil, fmt.Errorf("tw: %d uncommitted events survived quiesce", e.uncommitted)
	}
	cm, ok := e.cfg.Model.(CheckpointModel)
	if !ok {
		return nil, errNotCheckpointModel
	}
	st := &EngineState{
		Seq:             e.seq,
		GVT:             e.gvt,
		PeakUncommitted: e.peakUncommitted,
		LPs:             make([]LPRecord, len(e.lps)),
		Pending:         make([][]EventRecord, len(e.peers)),
		PeerStats:       make([]PeerStats, len(e.peers)),
	}
	for i, lp := range e.lps {
		data, err := cm.EncodeState(lp.state)
		if err != nil {
			return nil, fmt.Errorf("tw: encoding LP %d state: %w", lp.ID, err)
		}
		st.LPs[i] = LPRecord{State: data, Rng: lp.rand.Save(), LVT: lp.lvt}
	}
	for i, p := range e.peers {
		recs, err := e.drainQuiesced(p)
		if err != nil {
			return nil, err
		}
		st.Pending[i] = recs
		st.PeerStats[i] = p.Stats
	}
	return st, nil
}

// drainQuiesced converts and consumes a peer's quiesced slice,
// validating against the below-GVT invariant and asserting pop order.
func (e *Engine) drainQuiesced(p *Peer) ([]EventRecord, error) {
	recs := make([]EventRecord, 0, len(p.quiesced))
	for _, ev := range p.quiesced {
		if ev.state == StateCancelled {
			continue
		}
		if ev.Ts < e.gvt {
			return nil, fmt.Errorf("tw: pending event %v below GVT %.6f at capture", ev, e.gvt)
		}
		recs = append(recs, EventRecord{
			Ts: ev.Ts, Seq: ev.Seq, Src: ev.Src, Dst: ev.Dst,
			Kind: ev.Kind, A: ev.A, B: ev.B,
		})
	}
	// Pop order is already (Ts, Seq); assert rather than trust.
	if !sort.SliceIsSorted(recs, func(a, b int) bool {
		if recs[a].Ts != recs[b].Ts {
			return recs[a].Ts < recs[b].Ts
		}
		return recs[a].Seq < recs[b].Seq
	}) {
		return nil, fmt.Errorf("tw: peer %d pending pop order not sorted", p.ID)
	}
	p.quiesced = nil
	return recs, nil
}

// quiesce rolls the engine back onto the committed cut of its current
// GVT: every processed-but-uncommitted event is rolled back, the
// resulting anti-message traffic is drained to a fixpoint, deferred
// lazy-cancellation sends are flushed, and each peer's pending set is
// emptied (in pop order) into its quiesced scratch slice.
func (e *Engine) quiesce() {
	cpu := nopCPU{}
	// Roll back all speculation. Rollbacks unsend (anti-messages into
	// other peers' input queues) and drains can trigger further
	// rollbacks, so iterate to a fixpoint.
	for progress := true; progress; {
		progress = false
		for _, p := range e.peers {
			if len(p.inq) > 0 {
				p.Drain(cpu)
				progress = true
			}
			for _, kp := range p.kps {
				if len(kp.processed) > 0 {
					p.rollback(kp, kp.processed[0])
					progress = true
				}
			}
		}
	}
	// Pop order is (Ts, Seq) — the canonical order the capture
	// serializes.
	for _, p := range e.peers {
		p.quiesced = p.quiesced[:0]
		for {
			ev, ok := p.pending.Pop()
			if !ok {
				break
			}
			p.quiesced = append(p.quiesced, ev)
		}
	}
	// Under lazy cancellation rolled-back events still hold tentative
	// sends awaiting re-adoption; they cannot survive a checkpoint, so
	// annihilate them now. The antis only ever target events already in
	// the quiesced slices (everything pending is there), so the flush
	// stage's drains just mark targets cancelled.
	for progress := true; progress; {
		progress = false
		for _, p := range e.peers {
			for _, ev := range p.quiesced {
				if ev.state != StateCancelled && len(ev.tentative) > 0 {
					p.flushTentative(ev)
					progress = true
				}
			}
			if len(p.inq) > 0 {
				p.Drain(cpu)
				progress = true
			}
		}
	}
	for _, p := range e.peers {
		p.minSent = math.Inf(1)
		p.acc = 0
	}
}

// NewEngineFromState rebuilds an engine from a capture. cfg must be the
// same configuration the capturing engine ran with (the driver
// guarantees this by storing the config alongside the capture); the
// model is constructed fresh but its InitLP is skipped — LP states come
// from the capture.
func NewEngineFromState(cfg Config, st *EngineState) (*Engine, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	cm, ok := cfg.Model.(CheckpointModel)
	if !ok {
		return nil, errNotCheckpointModel
	}
	eng, err := newEngineShell(cfg)
	if err != nil {
		return nil, err
	}
	if len(st.LPs) != len(eng.lps) {
		return nil, fmt.Errorf("tw: capture has %d LPs, config builds %d", len(st.LPs), len(eng.lps))
	}
	if len(st.Pending) != len(eng.peers) || len(st.PeerStats) != len(eng.peers) {
		return nil, fmt.Errorf("tw: capture has %d/%d peers, config builds %d",
			len(st.Pending), len(st.PeerStats), len(eng.peers))
	}
	eng.seq = st.Seq
	eng.gvt = st.GVT
	eng.peakUncommitted = st.PeakUncommitted
	for i, lp := range eng.lps {
		rec := st.LPs[i]
		state, err := cm.DecodeState(rec.State)
		if err != nil {
			return nil, fmt.Errorf("tw: decoding LP %d state: %w", lp.ID, err)
		}
		lp.state = state
		lp.rand.Restore(rec.Rng)
		lp.lvt = rec.LVT
	}
	for i, p := range eng.peers {
		p.Stats = st.PeerStats[i]
		for _, r := range st.Pending[i] {
			ev := &Event{
				Ts: r.Ts, Seq: r.Seq, Src: r.Src, Dst: r.Dst,
				Kind: r.Kind, A: r.A, B: r.B,
				state: StatePending,
			}
			if r.Src < 0 || r.Src >= len(eng.lps) || r.Dst < 0 || r.Dst >= len(eng.lps) {
				return nil, fmt.Errorf("tw: capture holds event %v between unknown LPs (%d LPs)", ev, len(eng.lps))
			}
			if owner := eng.lps[r.Dst].Owner; owner != i {
				return nil, fmt.Errorf("tw: capture holds event %v on peer %d, but LP %d belongs to peer %d", ev, i, r.Dst, owner)
			}
			if r.Ts < st.GVT {
				return nil, fmt.Errorf("tw: capture holds pending event %v below GVT %.6f", ev, st.GVT)
			}
			if r.Seq > st.Seq {
				return nil, fmt.Errorf("tw: capture holds event %v beyond sequence %d", ev, st.Seq)
			}
			p.pending.Push(ev)
		}
	}
	return eng, nil
}
