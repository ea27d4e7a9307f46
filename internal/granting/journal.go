// The write-ahead decision journal: grantd is the system of record for every
// entitlement, so an accepted submission and a decided batch must both
// survive a crash. The journal is an append-only sequence of records in the
// internal/recordlog format (length-prefixed, CRC-32C-checksummed JSON in
// generation-numbered wal-%016d.log files); a checkpoint record opens each
// generation with a full state snapshot, so replay is "latest checkpoint +
// everything after it" and old generations can be deleted.
//
// Record types:
//
//	sub   submission accepted: ids + validated requests (StartUnix pinned)
//	dec   batch decided: canonical batch signature + per-request decisions
//	ckpt  checkpoint: id counter, stats, decided table, pending submissions
//
// Recovery invariants (pinned by the crash property test):
//
//   - Replay tolerates a torn tail: decoding stops at the first record whose
//     header, length, checksum, body, or shape is invalid, keeps the valid
//     prefix, and never fails or panics on arbitrary bytes (recordlog's
//     FuzzDecode; FuzzJournalReplay folds whatever it accepts).
//   - A request id whose dec record survived is served byte-identically
//     after restart: the decision JSON round-trips exactly (encoding/json
//     renders float64 shortest-roundtrip, so equal structs re-render to
//     equal bytes).
//   - A sub record without a surviving dec record is re-queued and
//     re-decided deterministically: StartUnix was pinned at the original
//     submission, and the decider re-coalesces the recovered queue in the
//     original order.
//   - A decision that was served but whose dec record was lost to the torn
//     tail is re-derived by the same determinism, so durability of the dec
//     record is a latency optimization for restarts, not a correctness
//     requirement — which is why a journal append failure inside decide()
//     degrades to a metric instead of failing the decision.
package granting

import (
	"fmt"
	"os"

	"entitlement/internal/recordlog"
)

// FsyncPolicy says when the journal calls fsync.
type FsyncPolicy string

// Fsync policies, weakest to strongest.
const (
	// FsyncNone never syncs; the OS flushes on its own schedule. A crash
	// can lose recent records (they are re-derived deterministically), a
	// clean restart loses nothing.
	FsyncNone FsyncPolicy = "none"
	// FsyncBatch (the default) syncs once per decided batch and per
	// checkpoint; accepted-but-undecided submissions may be lost to a
	// crash, decisions survive.
	FsyncBatch FsyncPolicy = "batch"
	// FsyncAlways syncs after every record: an accepted submission is
	// durable before Submit returns.
	FsyncAlways FsyncPolicy = "always"
)

// ParseFsyncPolicy parses the flag form of a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncNone, FsyncBatch, FsyncAlways:
		return FsyncPolicy(s), nil
	case "":
		return FsyncBatch, nil
	}
	return "", fmt.Errorf("granting: unknown fsync policy %q (want none, batch, or always)", s)
}

// WALOptions configure the write-ahead decision journal.
type WALOptions struct {
	// Dir holds the journal files; empty disables durability entirely.
	Dir string
	// Fsync is the sync policy. Default FsyncBatch.
	Fsync FsyncPolicy
	// CheckpointBytes rotates the journal (snapshot + truncate) once the
	// current generation exceeds this many bytes. Default 1 MiB.
	CheckpointBytes int64
}

func (o WALOptions) withDefaults() WALOptions {
	if o.Fsync == "" {
		o.Fsync = FsyncBatch
	}
	if o.CheckpointBytes <= 0 {
		o.CheckpointBytes = 1 << 20
	}
	return o
}

// walSub journals one accepted submission (a group decides atomically).
type walSub struct {
	IDs  []string  `json:"ids"`
	Reqs []Request `json:"reqs"`
}

// walDec journals one decided batch. Sig is the canonical batch signature
// ("" when the batch was not memoizable); Decs[i] answers IDs[i].
type walDec struct {
	Sig  string     `json:"sig,omitempty"`
	IDs  []string   `json:"ids"`
	Decs []Decision `json:"decs"`
}

// walDecided is one decided id inside a checkpoint, in retention order.
type walDecided struct {
	ID  string   `json:"id"`
	Dec Decision `json:"dec"`
}

// walCkpt is the full-state snapshot that opens each journal generation.
type walCkpt struct {
	Seq     uint64       `json:"seq"`
	Stats   Stats        `json:"stats"`
	Decided []walDecided `json:"decided,omitempty"`
	Pending []walSub     `json:"pending,omitempty"`
}

// walRecord is the envelope every journal payload decodes into; exactly one
// of the pointers is set, matching T.
type walRecord struct {
	T    string   `json:"t"`
	Sub  *walSub  `json:"sub,omitempty"`
	Dec  *walDec  `json:"dec,omitempty"`
	Ckpt *walCkpt `json:"ckpt,omitempty"`
}

// shapeOK checks the type/payload pairing a decoded record must satisfy. An
// unknown type or a self-inconsistent record means replay cannot interpret
// anything after it soundly, so the decode stops there.
func (r *walRecord) shapeOK() bool {
	switch r.T {
	case "sub":
		return r.Sub != nil && len(r.Sub.IDs) == len(r.Sub.Reqs) && len(r.Sub.IDs) > 0
	case "dec":
		return r.Dec != nil && len(r.Dec.IDs) == len(r.Dec.Decs) && len(r.Dec.IDs) > 0
	case "ckpt":
		return r.Ckpt != nil
	}
	return false
}

// Recovered is the state replayed from a journal directory.
type Recovered struct {
	// Seq is the highest id counter observed; the service resumes above it.
	Seq uint64
	// Stats are the persistent counters as of the last journaled event.
	Stats Stats
	// Decided holds every decided request id with its exact decision,
	// oldest first (the retention order).
	Decided []walDecided
	// Pending holds accepted-but-undecided submissions in submit order;
	// the service re-queues and re-decides them deterministically.
	Pending []walSub
	// Records counts replayed records across all generations.
	Records int
	// Truncated reports that a torn or corrupt tail was dropped somewhere.
	Truncated bool
}

// walGen names one generation file.
func walGen(dir string, gen uint64) string { return recordlog.Name(dir, "wal-", gen, ".log") }

// listWALGens returns the generation numbers present in dir, ascending.
func listWALGens(dir string) ([]uint64, error) { return recordlog.Gens(dir, "wal-", ".log") }

// applyWALRecord folds one record into the recovered state.
func (st *Recovered) applyWALRecord(rec *walRecord) {
	switch rec.T {
	case "ckpt":
		ck := rec.Ckpt
		st.Seq = ck.Seq
		st.Stats = ck.Stats
		st.Decided = append(st.Decided[:0], ck.Decided...)
		st.Pending = append(st.Pending[:0], ck.Pending...)
	case "sub":
		st.Pending = append(st.Pending, *rec.Sub)
		st.Stats.Submitted += int64(len(rec.Sub.IDs))
		st.bumpSeq(rec.Sub.IDs)
	case "dec":
		done := make(map[string]bool, len(rec.Dec.IDs))
		for _, id := range rec.Dec.IDs {
			done[id] = true
		}
		// A dec record always covers whole submissions (the decider pops
		// and decides complete groups), so pending entries fall away as
		// units; partial coverage keeps the submission queued.
		kept := st.Pending[:0]
		for _, p := range st.Pending {
			covered := true
			for _, id := range p.IDs {
				if !done[id] {
					covered = false
					break
				}
			}
			if !covered {
				kept = append(kept, p)
			}
		}
		st.Pending = kept
		// Checkpoints carry exact stats; events after the checkpoint fold
		// in here, mirroring decide()/failTimeout() accounting, so a crash
		// recovers the same counters a clean shutdown would have saved.
		// (Memo hit/miss counters stay checkpoint-only: the memo itself is
		// in-memory and rebuilt cold.)
		riskDecided := false
		for i, id := range rec.Dec.IDs {
			st.Decided = append(st.Decided, walDecided{ID: id, Dec: rec.Dec.Decs[i]})
			st.Stats.Decided++
			switch rec.Dec.Decs[i].Status {
			case StatusApproved:
				st.Stats.Approved++
				riskDecided = true
			case StatusNegotiated:
				st.Stats.Negotiated++
				riskDecided = true
			case StatusRejected:
				st.Stats.Rejected++
				riskDecided = true
			case StatusQueueTimeout:
				st.Stats.QueueTimeouts++
			default:
				st.Stats.Errors++
				riskDecided = true
			}
		}
		if riskDecided {
			st.Stats.Batches++
		}
		st.bumpSeq(rec.Dec.IDs)
	}
}

// bumpSeq advances the recovered id counter past every "g-<n>" id seen, so
// a restarted service never re-issues a journaled id.
func (st *Recovered) bumpSeq(ids []string) {
	for _, id := range ids {
		var n uint64
		if _, err := fmt.Sscanf(id, "g-%d", &n); err == nil && n > st.Seq {
			st.Seq = n
		}
	}
}

// ReplayWAL replays every journal generation in dir into a recovered state.
// A missing or empty directory recovers to zero state. Torn or corrupt
// tails truncate that generation's replay; a mid-sequence generation ending
// torn is tolerated because the next generation opens with a checkpoint
// that resets the state wholesale.
func ReplayWAL(dir string) (*Recovered, error) {
	st := &Recovered{}
	gens, err := listWALGens(dir)
	if err != nil {
		return nil, fmt.Errorf("granting: journal scan: %w", err)
	}
	for _, g := range gens {
		f, err := os.Open(walGen(dir, g))
		if err != nil {
			return nil, fmt.Errorf("granting: journal open: %w", err)
		}
		recs, _, truncated := recordlog.Decode(f, (*walRecord).shapeOK)
		f.Close()
		for i := range recs {
			st.applyWALRecord(&recs[i])
		}
		st.Records += len(recs)
		if truncated {
			st.Truncated = true
			mJournalReplayTruncations.Inc()
		}
	}
	mJournalReplayRecords.Add(int64(st.Records))
	return st, nil
}

// Journal is the service's append handle. All methods are called with the
// service mutex held (the service serializes submitters and the decider),
// so the Journal itself carries no lock.
type Journal struct {
	dir       string
	policy    FsyncPolicy
	ckptEvery int64
	gen       uint64
	f         *os.File
	size      int64 // bytes written to the current generation
}

// openJournal replays dir, then begins a fresh generation with a checkpoint
// of the recovered state — so the torn tail of a crashed generation is
// never appended to, and restart cost stays bounded by the snapshot size.
func openJournal(o WALOptions) (*Journal, *Recovered, error) {
	o = o.withDefaults()
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("granting: journal dir: %w", err)
	}
	st, err := ReplayWAL(o.Dir)
	if err != nil {
		return nil, nil, err
	}
	gens, err := listWALGens(o.Dir)
	if err != nil {
		return nil, nil, err
	}
	var next uint64 = 1
	if len(gens) > 0 {
		next = gens[len(gens)-1] + 1
	}
	j := &Journal{dir: o.Dir, policy: o.Fsync, ckptEvery: o.CheckpointBytes, gen: next - 1}
	if err := j.checkpoint(&walCkpt{
		Seq:     st.Seq,
		Stats:   st.Stats,
		Decided: st.Decided,
		Pending: st.Pending,
	}); err != nil {
		return nil, nil, err
	}
	return j, st, nil
}

// append frames rec, writes it to the current generation, and syncs when
// the policy (or force) says so.
func (j *Journal) append(rec *walRecord, force bool) error {
	buf, err := recordlog.Encode(rec)
	if err != nil {
		mJournalErrors.Inc()
		return fmt.Errorf("granting: journal append: %w", err)
	}
	if _, err := j.f.Write(buf); err != nil {
		mJournalErrors.Inc()
		return fmt.Errorf("granting: journal append: %w", err)
	}
	j.size += int64(len(buf))
	mJournalRecords.With(rec.T).Inc()
	mJournalBytes.Add(int64(len(buf)))
	if j.policy == FsyncAlways || (force && j.policy != FsyncNone) {
		if err := j.f.Sync(); err != nil {
			mJournalErrors.Inc()
			return fmt.Errorf("granting: journal sync: %w", err)
		}
		mJournalFsyncs.Inc()
	}
	return nil
}

// appendSub journals one accepted submission. Under FsyncAlways the record
// is durable before Submit returns; under weaker policies a crash may shed
// it (the caller never saw an id either way the decision goes).
func (j *Journal) appendSub(ids []string, reqs []Request) error {
	return j.append(&walRecord{T: "sub", Sub: &walSub{IDs: ids, Reqs: reqs}}, false)
}

// appendDec journals one decided batch; FsyncBatch and FsyncAlways both
// sync here, so a decision the caller observed survives a crash.
func (j *Journal) appendDec(sig string, ids []string, decs []Decision) error {
	return j.append(&walRecord{T: "dec", Dec: &walDec{Sig: sig, IDs: ids, Decs: decs}}, true)
}

// needCheckpoint reports whether the current generation has outgrown the
// rotation bound.
func (j *Journal) needCheckpoint() bool { return j.f == nil || j.size >= j.ckptEvery }

// checkpoint rotates to a new generation: write the snapshot record, sync
// it (unless FsyncNone), then delete every older generation. Old files are
// removed only after the new checkpoint is durable, so a crash between the
// two steps replays the previous generation instead of losing state.
func (j *Journal) checkpoint(ck *walCkpt) error {
	gen := j.gen + 1
	f, err := os.OpenFile(walGen(j.dir, gen), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		mJournalErrors.Inc()
		return fmt.Errorf("granting: journal rotate: %w", err)
	}
	old := j.f
	j.f, j.size, j.gen = f, 0, gen
	if err := j.append(&walRecord{T: "ckpt", Ckpt: ck}, true); err != nil {
		return err
	}
	if j.policy != FsyncNone {
		if d, derr := os.Open(j.dir); derr == nil {
			d.Sync()
			d.Close()
		}
	}
	if old != nil {
		old.Close()
	}
	gens, err := listWALGens(j.dir)
	if err != nil {
		return nil // pruning is best-effort; replay tolerates extra gens
	}
	for _, g := range gens {
		if g < gen {
			os.Remove(walGen(j.dir, g))
		}
	}
	mJournalCheckpoints.Inc()
	return nil
}

// Close syncs and closes the current generation.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	if j.policy != FsyncNone {
		j.f.Sync()
	}
	err := j.f.Close()
	j.f = nil
	return err
}
