package stack

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/nvmeof"
	"repro/internal/sim"
)

// The replication fast path (Config.ReplRelay). The direct fan-out path
// posts one full capsule per in-sync member and reaps one CQE stream per
// member: R× initiator PostMsg, R× TX-depth slots, R× egress, and
// completion_msgs_per_op growing with R. The relay path moves both costs
// off the initiator:
//
//	initiator ──one capsule──▶ head ──relay──▶ follower 1
//	                            │ └──relay──▶ follower 2
//	                            ◀─relay acks──┘
//	initiator ◀─aggregated CQE (quorum) + late-ack records─┘
//
//   - Fan-out: the initiator posts ONE vectored capsule to the set's head
//     member, carrying every follower's per-member SQE/attr slices (minted
//     at assign time exactly as on the direct path). The head peels one
//     relayed capsule per follower off the extension fields and forwards
//     it over a dedicated target-to-target fabric conn. Per-member
//     ServerIdx chains, PMR appends and gate semantics are unchanged —
//     each member still receives its own dense chain.
//   - Ack aggregation: followers route their completions to the head over
//     the relay conn instead of responding to the initiator. The head
//     counts acks (its own completion included) and emits ONE aggregated
//     CQE toward the initiator at write quorum, carrying the acked member
//     list; acks arriving after the fire become resolution records
//     piggybacked on later completion capsules, so the initiator reaches
//     full resolution without extra messages.
//
// Failure semantics: ANY degraded member suspends the relay for its set
// (relayActive) — new batches take the direct path, which is exactly the
// default code path. A follower cut flushes the head's aggregation state
// (partial acks are forwarded; later ones pass through as resolution
// records). A head cut converts in-flight state to direct mid-flight: the
// followers flush their sent-but-unconfirmed acks straight to the
// initiators (quorum dedup absorbs overlap), and the initiator re-posts —
// direct, per member — exactly the (command, follower) pairs whose relayed
// capsule cannot have been delivered, computed from the per-(initiator,
// QP) relay sequence prefix each survivor received (per-QP FIFO plus
// drop-whole on Disconnect make the prefix exact). No completion is lost
// or duplicated, and resync converges byte-identically to the direct path.
//
// Everything here is gated on cfg.ReplRelay: a relay-off cluster builds no
// relay conns, spawns no extra procs and allocates no relay state, so its
// event schedule is byte-identical to the pre-relay stack.

// aggKey identifies one replicated wire command at a target: the owning
// initiator plus the initiator-local command id.
type aggKey struct {
	init int
	id   uint64
}

// aggCQE annotates one entry of a completionMsg's CQE batch: a non-nil
// member list marks an aggregated CQE the set's head emitted at quorum,
// standing in for one genuine ack per listed member. wait is the head-side
// aggregation wait (first ack to quorum fire) for stage tracing.
type aggCQE struct {
	members []int
	wait    sim.Time
}

// aggResolved is one late member ack forwarded after the aggregated CQE
// fired — piggybacked on a later completion capsule toward the initiator,
// and echoed back to the follower (relayAcked) as confirmation that its
// ack reached the initiator, releasing the follower's replay buffer entry.
type aggResolved struct {
	init   int
	id     uint64
	member int
}

// relayAckMsg is one follower completion routed to the set's head over the
// relay conn (the target-to-target messages do not count against the
// initiator's completion messages — that is the point).
type relayAckMsg struct {
	init   int
	qp     int
	id     uint64
	member int
	epoch  int
}

// relayRoute is the follower-side record that a relayed command's
// completion must be acked to the head (keyed by aggKey in relayPend), and
// doubles as the sent-ack replay record (ackBuf): if the head dies before
// confirming the ack was forwarded, the follower re-sends it directly to
// the initiator.
type relayRoute struct {
	qp    int
	epoch int
}

// aggState is the head-side aggregation record for one relayed command.
type aggState struct {
	ws       *wireState
	got      []int // members whose ack arrived (head included)
	need     int
	qp       int
	epoch    int // owning initiator's epoch at relay time
	firstAck sim.Time
	fired    bool
}

// relayActive reports whether a set's batches take the relay path right
// now: every member in sync (any degrade falls back to direct fan-out
// until resync rejoins the member).
func (c *Cluster) relayActive(rs *replicaSet) bool {
	return c.cfg.ReplRelay && len(rs.members) > 1 && rs.inSyncCount() == len(rs.members)
}

// relayHead returns the set's head member (the relay hub).
func (rs *replicaSet) relayHead() int { return rs.members[0] }

// buildRelayConns wires each replica set's head to its followers with
// dedicated target-to-target fabric conns (head = Initiator side,
// follower = Target side; rs.relay is indexed by member position, 0 nil)
// and allocates the per-target relay state. Called from New only when
// cfg.ReplRelay is set — NewConn spawns wire procs, so a relay-off
// cluster must never reach here.
func (c *Cluster) buildRelayConns() {
	nInit, qps := c.cfg.Initiators, c.cfg.QPs
	for _, t := range c.targets {
		t.agg = make(map[aggKey]*aggState)
		t.relayPend = make(map[aggKey]relayRoute)
		t.ackBuf = make(map[aggKey]relayRoute)
		t.relayGC = make(map[int][]aggResolved)
		t.relaySeen = make([][]uint64, nInit)
		t.resolvedPend = make([][][]aggResolved, nInit)
		t.cqeAgg = make([][][]aggCQE, nInit)
		for i := 0; i < nInit; i++ {
			t.relaySeen[i] = make([]uint64, qps)
			t.resolvedPend[i] = make([][]aggResolved, qps)
			t.cqeAgg[i] = make([][]aggCQE, qps)
		}
		t.relayAckQ = sim.NewQueue[*relayAckMsg](c.Eng)
		t := t
		c.Eng.Go(fmt.Sprintf("tgt%d/relayack", t.id), func(p *sim.Proc) { t.relayAckLoop(p) })
	}
	for _, rs := range c.replSets {
		rs.relay = make([]*fabric.Conn, len(rs.members))
		head := c.targets[rs.relayHead()]
		for k := 1; k < len(rs.members); k++ {
			follower := c.targets[rs.members[k]]
			conn := fabric.NewConn(c.Eng, c.cfg.Fabric)
			// Follower side: relayed command capsules. Retire watermarks
			// ride along exactly as on the direct path and are processed in
			// interrupt context (they free PMR space commands may be
			// blocked on); relayAcked confirmations release the follower's
			// ack replay buffer before the capsule even queues.
			conn.SetHandler(fabric.Target, func(m fabric.Message) {
				cp, ok := m.Payload.(*capsule)
				if !ok || len(cp.cmds) == 0 {
					return
				}
				init := cp.cmds[0].init
				if follower.alive && cp.epoch == follower.initEpoch(init) {
					for _, e := range cp.relayAcked {
						delete(follower.ackBuf, aggKey{e.init, e.id})
					}
					for _, r := range cp.retires {
						follower.retireUpTo(init, r.stream, r.upTo)
					}
					if cp.relaySeq > follower.relaySeen[init][m.QP] {
						follower.relaySeen[init][m.QP] = cp.relaySeq
					}
				}
				follower.rxQs[init][m.QP].Push(cp)
			})
			// Head side: follower acks.
			conn.SetHandler(fabric.Initiator, func(m fabric.Message) {
				if ack, ok := m.Payload.(*relayAckMsg); ok {
					head.relayAckQ.Push(ack)
				}
			})
			rs.relay[k] = conn
		}
	}
}

// nextRelaySeq mints the per-(initiator, set, QP) relay sequence number a
// head capsule carries. Per-QP fabric FIFO plus drop-whole on Disconnect
// make {seq <= relaySeen} each survivor's exact received set — the basis
// of head-cut re-posting.
func (in *Initiator) nextRelaySeq(set, qp int) uint64 {
	k := set*in.cfg.QPs + qp
	in.relaySeq[k]++
	return in.relaySeq[k]
}

// postRelay posts one set's batch as a single head capsule carrying every
// follower's slices: one PostMsg, one TX-depth slot, one wire message —
// the R×→1× initiator cost collapse the relay exists for.
func (in *Initiator) postRelay(p *sim.Proc, rs *replicaSet, cmds []*wireState, stream int) {
	qp := in.qpFor(stream)
	head := rs.relayHead()
	cp := &capsule{cmds: cmds, epoch: in.epoch, member: head}
	cp.relayTo = append(cp.relayTo, rs.members[1:]...)
	cp.sqes, cp.attrs = memberSlice(cmds, 0)
	cp.relaySQEs = make([][]nvmeof.SQE, len(cp.relayTo))
	cp.relayAttrs = make([][][]core.Attr, len(cp.relayTo))
	for k := 1; k < len(rs.members); k++ {
		cp.relaySQEs[k-1], cp.relayAttrs[k-1] = memberSlice(cmds, k)
	}
	for _, ws := range cmds {
		ws.qp = qp
	}
	if in.cfg.Mode == ModeRio {
		for _, m := range rs.members {
			if m == head {
				cp.retires = in.appendRetires(cp.retires, m)
			} else {
				cp.relayRetires = append(cp.relayRetires, in.appendRetires(nil, m))
			}
		}
	} else {
		cp.relayRetires = make([][]retire, len(cp.relayTo))
	}
	cp.relaySeq = in.nextRelaySeq(rs.id, qp)
	for _, ws := range cmds {
		ws.repl.relaySeq = cp.relaySeq
	}
	// One capsule carries the head's vectored batch plus the followers'
	// SQE slices (their attrs ride in the SQE reserved dwords, their data
	// is the same inline payload the head forwards): wireSize counts both.
	in.post(p, head, qp, cp)
}

// relayFanOut runs at the head when a relay capsule arrives, BEFORE the
// head processes its own slice: it registers the aggregation state for
// every command and forwards one relayed capsule per follower over the
// target-to-target conns. The head pays the per-follower PostMsg — the
// fan-out CPU moved off the initiator, not eliminated.
func (t *Target) relayFanOut(p *sim.Proc, cp *capsule, init, qp int) {
	rs := t.c.replSets[t.c.setOf[t.id]]
	// Register aggregations only while the set is fully in sync: a capsule
	// arriving after a degrade still fans out (live followers need their
	// slices; sends to the dead member's link drop at the fabric), but its
	// acks route straight through — the head's own completion responds
	// directly and follower acks become resolution records — so no
	// completion is ever held hostage by an aggregation that can no longer
	// reach quorum (WriteQuorum == Replicas would strand it until resync).
	if t.c.relayActive(rs) {
		for _, ws := range cp.cmds {
			t.agg[aggKey{init, ws.id}] = &aggState{
				ws:    ws,
				got:   make([]int, 0, len(rs.members)),
				need:  t.c.writeQuorum,
				qp:    qp,
				epoch: cp.epoch,
			}
		}
	}
	// Every follower's capsule carries the same commands; size it once,
	// before the first yield.
	size := (&capsule{cmds: cp.cmds}).wireSize(t.c.cfg.InlineThreshold)
	for j, f := range cp.relayTo {
		pos := rs.pos(f)
		conn := rs.relay[pos]
		fcp := &capsule{
			cmds:     cp.cmds,
			epoch:    cp.epoch,
			member:   f,
			sqes:     cp.relaySQEs[j],
			attrs:    cp.relayAttrs[j],
			relayed:  true,
			relaySeq: cp.relaySeq,
		}
		if j < len(cp.relayRetires) {
			fcp.retires = cp.relayRetires[j]
		}
		if gc := t.relayGC[f]; len(gc) > 0 {
			fcp.relayAcked = gc
			t.relayGC[f] = nil
		}
		t.cores.Use(p, t.c.costs.PostMsg)
		t.stats.Relays++
		if !t.alive {
			return // power cut mid-fan-out: the rest dies with the NIC
		}
		sendCapsule(p, conn, qp, size, fcp)
	}
}

// relayNote records, at the follower, that a relayed command's completion
// routes to the head instead of the initiator. Called per command as the
// relayed capsule is processed (before submission, so the completion can
// never outrun the record).
func (t *Target) relayNote(ws *wireState, epoch int, qp int) {
	t.relayPend[aggKey{ws.init, ws.id}] = relayRoute{qp: qp, epoch: epoch}
}

// relayRespond intercepts a follower completion bound for the head: it
// replaces the direct CQE with one relayAckMsg on the relay conn, and
// parks a replay record (ackBuf) until the head confirms the ack reached
// the initiator — a head cut flushes unconfirmed records straight to the
// initiator. Reports false when the command is not relay-routed (the
// caller then responds directly, the default path).
func (t *Target) relayRespond(p *sim.Proc, ws *wireState) bool {
	if t.relayPend == nil {
		return false
	}
	key := aggKey{ws.init, ws.id}
	rp, ok := t.relayPend[key]
	if !ok {
		return false
	}
	delete(t.relayPend, key)
	rs := t.c.replSets[t.c.setOf[t.id]]
	conn := rs.relay[rs.pos(t.id)]
	if conn == nil || !conn.Up() {
		// The head died and the cut sweep already cleared our route — or
		// the link is down mid-cut. Respond directly; quorum dedup at the
		// initiator absorbs any overlap with the cut sweep's flush.
		return false
	}
	t.ackBuf[key] = rp
	t.cores.Use(p, t.c.costs.PostMsg)
	t.stats.RelayAcks++
	if !t.alive {
		return true
	}
	conn.Send(fabric.Target, fabric.Message{
		QP: rp.qp, Size: nvmeof.ResponseSize,
		Payload: &relayAckMsg{init: ws.init, qp: rp.qp, id: ws.id, member: t.id, epoch: rp.epoch},
	})
	return true
}

// relayAckLoop is the head-side context consuming follower acks: each ack
// costs receive CPU (the reap work moved off the initiator) and feeds the
// aggregation; acks for commands whose aggregation already fired — or was
// flushed by a degrade — pass through as resolution records.
func (t *Target) relayAckLoop(p *sim.Proc) {
	for {
		ack := t.relayAckQ.Pop(p)
		if !t.alive || ack.epoch != t.initEpoch(ack.init) {
			continue
		}
		t.cores.Use(p, t.c.costs.RecvMsg)
		if !t.alive || ack.epoch != t.initEpoch(ack.init) {
			continue
		}
		if as, ok := t.agg[aggKey{ack.init, ack.id}]; ok && as.epoch == ack.epoch {
			t.aggAck(p, as, ack.init, ack.id, ack.member)
			continue
		}
		t.pushResolved(ack.init, ack.qp, aggResolved{init: ack.init, id: ack.id, member: ack.member})
	}
}

// aggAck accounts one member ack (the head's own completion included).
// At write quorum the aggregated CQE is emitted into the normal response
// coalescing path; later acks become piggybacked resolution records.
func (t *Target) aggAck(p *sim.Proc, as *aggState, init int, id uint64, member int) {
	for _, m := range as.got {
		if m == member {
			return // duplicate (cannot happen on healthy links; cheap guard)
		}
	}
	as.got = append(as.got, member)
	if as.firstAck == 0 {
		as.firstAck = t.c.Eng.Now()
	}
	if as.fired {
		t.pushResolved(init, as.qp, aggResolved{init: init, id: id, member: member})
		if len(as.got) == len(t.c.replSets[t.c.setOf[t.id]].members) {
			delete(t.agg, aggKey{init, id})
		}
		return
	}
	if len(as.got) < as.need {
		return
	}
	as.fired = true
	t.stats.AggFires++
	t.queueAggCQE(init, as.qp, as.epoch, id, aggCQE{
		members: append([]int(nil), as.got...),
		wait:    t.c.Eng.Now() - as.firstAck,
	})
	if len(as.got) == len(t.c.replSets[t.c.setOf[t.id]].members) {
		delete(t.agg, aggKey{init, id})
	}
	t.flushOrArm(p, init, as.qp)
}

// queueAggCQE appends one aggregated CQE (and its annotation) to the
// (initiator, QP) pending response capsule. Memory-only, so the degrade
// sweep may call it from engine context; the actual flush happens in
// completion context (flushOrArm, or a routed flush event).
func (t *Target) queueAggCQE(init, qp, epoch int, id uint64, a aggCQE) {
	if len(t.cqePend[init][qp]) == 0 {
		t.cqeEpoch[init][qp] = epoch
		t.cqeFirst[init][qp] = t.c.Eng.Now()
	}
	t.cqePend[init][qp] = append(t.cqePend[init][qp], nvmeof.NewCQE(id))
	t.cqeAgg[init][qp] = append(t.cqeAgg[init][qp], a)
	if t.c.tracer != nil {
		t.cqePendT[init][qp] = append(t.cqePendT[init][qp], t.c.Eng.Now())
	}
}

// flushOrArm applies respond()'s flush policy to the pending batch: ship
// when full or when the QP has nothing left in flight, otherwise make sure
// the hold timer is armed.
func (t *Target) flushOrArm(p *sim.Proc, init, qp int) {
	if len(t.cqePend[init][qp]) >= t.cqeBatchSize() || t.cqeInflight[init][qp] == 0 {
		t.flushCQEs(p, init, qp)
		return
	}
	if !t.cqeArmed[init][qp] {
		t.armCQETimer(init, qp, t.cqeHoldTime())
	}
}

// pushResolved queues one late-ack resolution record for piggybacking on
// the next completion capsule of its (initiator, QP), arming the hold
// timer as a backstop so an idle QP still resolves.
func (t *Target) pushResolved(init, qp int, r aggResolved) {
	t.resolvedPend[init][qp] = append(t.resolvedPend[init][qp], r)
	if len(t.cqePend[init][qp]) == 0 && !t.cqeArmed[init][qp] {
		t.armCQETimer(init, qp, t.cqeHoldTime())
	}
}

// noteForwarded records, per follower, the acks a just-shipped completion
// capsule delivered to the initiator — the confirmations the next relayed
// capsule piggybacks so followers release their ack replay buffers.
func (t *Target) noteForwarded(init int, agg []aggCQE, cqes []nvmeof.CQE, resolved []aggResolved) {
	if t.relayGC == nil {
		return
	}
	for i, a := range agg {
		for _, m := range a.members {
			if m != t.id && i < len(cqes) {
				t.relayGC[m] = append(t.relayGC[m], aggResolved{init: init, id: cqes[i].ID(), member: m})
			}
		}
	}
	for _, r := range resolved {
		if r.member != t.id {
			t.relayGC[r.member] = append(t.relayGC[r.member], r)
		}
	}
}

// relayCut handles a member power cut for the relay machinery; called from
// PowerCutTarget after degradeMember (in engine context — everything here
// is memory moves, fabric control-plane calls and queued flush events).
//
// Follower dead: its relay link drops (drop-whole), and the head's open
// aggregations flush with whatever acks they hold — partial member lists
// are always safe to forward (the initiator's quorum does the counting) —
// so a WriteQuorum == Replicas command is not stranded waiting for an ack
// aggregation that can no longer complete. Later acks pass through as
// resolution records.
//
// Head dead: every relay link of the set drops; survivors flush their
// unconfirmed acks directly to the initiators (quorum dedup absorbs any
// overlap with records the head did forward) and clear their relay routes
// so in-flight completions respond directly; the initiators re-post —
// direct — exactly the (command, follower) pairs beyond each survivor's
// received relay-sequence prefix.
func (c *Cluster) relayCut(m int) {
	rs := c.replSets[c.setOf[m]]
	head := rs.relayHead()
	ht := c.targets[head]
	if m != head {
		if conn := rs.relay[rs.pos(m)]; conn != nil {
			conn.Disconnect()
		}
		c.flushAggStates(ht, rs)
		return
	}
	// Head cut: drop every relay link of the set (in-flight relayed
	// capsules and acks die with them).
	for _, conn := range rs.relay {
		if conn != nil {
			conn.Disconnect()
		}
	}
	ht.relayAckQ.Drain()
	clearRelayMaps(ht)
	for k, f := range rs.members {
		if !rs.inSync[k] || f == head {
			continue
		}
		c.targets[f].flushAckBuf()
	}
	c.repostAfterHeadCut(rs, head)
}

// flushAggStates fires every open aggregation of the head's set with the
// acks gathered so far and drops the state, so subsequent acks take the
// passthrough paths (the head's own completions respond directly, follower
// acks become resolution records). Runs in engine context: CQEs are
// queued memory-only and shipped by routed flush events.
func (c *Cluster) flushAggStates(t *Target, rs *replicaSet) {
	if len(t.agg) == 0 {
		return
	}
	keys := make([]aggKey, 0, len(t.agg))
	for k := range t.agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].init != keys[b].init {
			return keys[a].init < keys[b].init
		}
		return keys[a].id < keys[b].id
	})
	type iq struct{ init, qp int }
	var touched []iq
	seen := map[iq]bool{}
	for _, k := range keys {
		as := t.agg[k]
		delete(t.agg, k)
		if as.epoch != t.initEpoch(k.init) || as.fired || len(as.got) == 0 {
			continue
		}
		as.fired = true
		t.stats.AggFires++
		t.queueAggCQE(k.init, as.qp, as.epoch, k.id, aggCQE{
			members: append([]int(nil), as.got...),
			wait:    c.Eng.Now() - as.firstAck,
		})
		if key := (iq{k.init, as.qp}); !seen[key] {
			seen[key] = true
			touched = append(touched, key)
		}
	}
	for _, k := range touched {
		fd := t.getDone()
		fd.flushQP, fd.flushInit, fd.epoch = k.qp+1, k.init, t.initEpoch(k.init)
		t.doneQ.Push(fd)
	}
}

// flushAckBuf re-sends every unconfirmed relayed ack directly to its
// initiator: the head may have died before forwarding them. A CQE the
// head DID forward arrives twice; order.Quorum.Ack de-duplicates.
func (t *Target) flushAckBuf() {
	if len(t.ackBuf) == 0 {
		return
	}
	keys := make([]aggKey, 0, len(t.ackBuf))
	for k := range t.ackBuf {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].init != keys[b].init {
			return keys[a].init < keys[b].init
		}
		return keys[a].id < keys[b].id
	})
	for _, k := range keys {
		rp := t.ackBuf[k]
		delete(t.ackBuf, k)
		if rp.epoch != t.initEpoch(k.init) || !t.conns[k.init].Up() {
			continue
		}
		cqe := nvmeof.NewCQE(k.id)
		cqe.MarkCQEVector(0, 1)
		t.stats.Responses++
		t.stats.CQEs++
		t.conns[k.init].Send(fabric.Target, fabric.Message{
			QP: rp.qp, Size: nvmeof.ResponseSize,
			Payload: &completionMsg{cqes: []nvmeof.CQE{cqe}, qp: rp.qp, epoch: rp.epoch, from: t.id},
		})
	}
	// Routes for commands still in flight here revert to direct response.
	for k := range t.relayPend {
		delete(t.relayPend, k)
	}
}

// repostAfterHeadCut computes, per survivor, the (command, follower)
// pairs whose relayed capsule cannot have been delivered — the command's
// relay sequence is beyond the survivor's received prefix on its QP — and
// re-posts them direct from a spawned proc (PowerCutTarget runs in engine
// context). Re-posted SQEs are re-marked as singleton vectors; arrival
// order relative to other in-flight commands is absorbed by the in-order
// gate's parking (the chain indices are unchanged), and the prefix test
// makes duplicates impossible.
func (c *Cluster) repostAfterHeadCut(rs *replicaSet, head int) {
	type repost struct {
		in *Initiator
		ws *wireState
		k  int // member position in ws.repl.q.Members
		m  int // follower target id
	}
	var work []repost
	for _, in := range c.inits {
		if !in.alive {
			continue
		}
		ids := make([]uint64, 0, len(in.outstanding))
		for id, ws := range in.outstanding {
			if ws.repl != nil && ws.repl.q.Set == rs.id && ws.repl.relaySeq > 0 {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			ws := in.outstanding[id]
			r := ws.repl
			for k, m := range r.q.Members {
				if m == head || r.q.Resolved[k] {
					continue
				}
				seen := c.targets[m].relaySeen[in.id][ws.qp]
				if r.relaySeq > seen {
					work = append(work, repost{in: in, ws: ws, k: k, m: m})
				}
			}
			r.relaySeq = 0 // now direct; a second sweep must not re-post
		}
	}
	if len(work) == 0 {
		return
	}
	epochs := make([]int, len(c.inits))
	for i, in := range c.inits {
		epochs[i] = in.epoch
	}
	c.Eng.Go(fmt.Sprintf("relay/repost%d", rs.id), func(p *sim.Proc) {
		for _, w := range work {
			in := w.in
			if !in.alive || in.epoch != epochs[in.id] || w.ws.repl.q.Resolved[w.k] {
				continue
			}
			cp := &capsule{cmds: []*wireState{w.ws}, epoch: epochs[in.id], member: w.m}
			cp.sqes, cp.attrs = memberSlice(cp.cmds, w.k)
			size := cp.wireSize(in.cfg.InlineThreshold)
			in.useInitCPU(p, in.costs.PostMsg)
			conn := in.targets[w.m].conns[in.id]
			if !conn.Up() || !in.alive || in.epoch != epochs[in.id] {
				continue
			}
			sendCapsule(p, conn, w.ws.qp, size, cp)
			in.stats.WireMessages++
			in.stats.TxMsgs++
			in.stats.TxBytes += int64(size)
		}
	})
}

// clearRelayMaps drops a target's volatile relay state (power cut or
// restart): aggregations, routes, replay buffers, GC queues and received
// prefixes, plus the parallel agg/resolution response annotations (the
// CQE buffers themselves are cleared by the caller's sweep).
func clearRelayMaps(t *Target) {
	if t.agg == nil {
		return
	}
	for k := range t.agg {
		delete(t.agg, k)
	}
	for k := range t.relayPend {
		delete(t.relayPend, k)
	}
	for k := range t.ackBuf {
		delete(t.ackBuf, k)
	}
	for k := range t.relayGC {
		delete(t.relayGC, k)
	}
	for i := range t.relaySeen {
		for qp := range t.relaySeen[i] {
			t.relaySeen[i][qp] = 0
		}
	}
	for i := range t.resolvedPend {
		for qp := range t.resolvedPend[i] {
			t.resolvedPend[i][qp] = nil
			t.cqeAgg[i][qp] = nil
		}
	}
}

// clearRelayInitiator drops the relay state one crashed initiator left on
// a target, leaving other initiators' untouched (mirrors the per-initiator
// CQE sweep in PowerCutInitiator). Stale aggregations and routes are also
// epoch-guarded, so this is hygiene, not correctness.
func clearRelayInitiator(t *Target, init int) {
	if t.agg == nil {
		return
	}
	for k := range t.agg {
		if k.init == init {
			delete(t.agg, k)
		}
	}
	for k := range t.relayPend {
		if k.init == init {
			delete(t.relayPend, k)
		}
	}
	for k := range t.ackBuf {
		if k.init == init {
			delete(t.ackBuf, k)
		}
	}
	for m, list := range t.relayGC {
		keep := list[:0]
		for _, r := range list {
			if r.init != init {
				keep = append(keep, r)
			}
		}
		t.relayGC[m] = keep
	}
	for qp := range t.relaySeen[init] {
		t.relaySeen[init][qp] = 0
		t.resolvedPend[init][qp] = nil
		t.cqeAgg[init][qp] = nil
	}
}

// reconnectRelay re-establishes the relay links a recovered member touches
// (a follower: its own link; the head: every link of the set) and resets
// the member's volatile relay state.
func (c *Cluster) reconnectRelay(m int) {
	if !c.cfg.ReplRelay {
		return
	}
	rs := c.replSets[c.setOf[m]]
	if m == rs.relayHead() {
		for _, conn := range rs.relay {
			if conn != nil {
				conn.Reconnect()
			}
		}
	} else if conn := rs.relay[rs.pos(m)]; conn != nil {
		conn.Reconnect()
	}
	clearRelayMaps(c.targets[m])
}
