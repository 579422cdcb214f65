package recovery

import (
	"fmt"

	"ppa/internal/checkpoint"
	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/obs"
	"ppa/internal/oracle"
	"ppa/internal/persist"
)

// Result is what one recovery pass established.
type Result struct {
	// Contract is the recovery contract the pass ran under.
	Contract persist.RecoveryContract
	// Images holds the validated checkpoint images, indexed by core.
	Images []*checkpoint.Image
	// PerCore holds each core's recovery outcome (nil after an
	// interrupted pass).
	PerCore []*Outcome
	// Points holds each core's contract point in committed instructions:
	// the committed prefix for checkpoint-replay schemes, the last
	// region-commit marker for transaction schemes. Recovery is judged
	// there and the programs resume there (nil after an interrupted pass).
	Points []int
}

// Cut interrupts a recovery pass: power fails again mid-recovery. A
// checkpoint-replay pass applies only the first Param mod (len(CSQ)+1)
// entries of each core's CSQ; a transaction scheme's log recovery, being
// idempotent (truncate, then roll back or replay), runs once. Either way
// the next pass re-enters the protocol from the top.
type Cut struct {
	Param uint64
}

// Run is the recovery protocol every crash harness runs after an outage
// (Section 4.6). It loads every core's image from the NVM checkpoint area
// and validates it, refusing a region whose images do not map one to one
// onto progs, then dispatches once on the scheme's contract. Transaction
// schemes (undo, redo and staged logs) reconstruct the image from their own
// durable log, up to each core's last region-commit marker; the checkpointed
// CSQ may hold an uncommitted region's stores, so it is never replayed.
// Every other scheme replays each core's CSQ and resumes after its LCPC,
// emitting a "recovery-replay" instant per core on hub stamped at atCycle
// (the clock is stopped during recovery). A non-nil cut makes the pass an
// interrupted one. Damage surfaces as ErrNoCheckpoint, ErrTornCheckpoint or
// ErrChecksum.
func Run(dev *nvm.Device, scheme persist.Scheme, progs []*isa.Program, hub *obs.Hub, atCycle uint64, cut *Cut) (*Result, error) {
	images, err := LoadImages(dev)
	if err != nil {
		return nil, err
	}
	if len(images) != len(progs) {
		return nil, fmt.Errorf("%w: %d images for %d cores", ErrTornCheckpoint, len(images), len(progs))
	}
	res := &Result{Contract: scheme.Contract(), Images: make([]*checkpoint.Image, len(progs))}
	for _, im := range images {
		if err := ValidateImage(im); err != nil {
			return nil, err
		}
		if im.CoreID >= len(progs) || res.Images[im.CoreID] != nil {
			return nil, fmt.Errorf("%w: second image or out-of-range image for core %d of %d",
				ErrTornCheckpoint, im.CoreID, len(progs))
		}
		res.Images[im.CoreID] = im
	}

	if res.Contract == persist.RecoverTxnBoundary {
		points, err := scheme.Recover(dev, len(progs))
		if err != nil {
			return nil, err
		}
		if cut != nil {
			return res, nil
		}
		res.Points = points
		for i, p := range points {
			res.PerCore = append(res.PerCore, &Outcome{CoreID: i, ResumeIndex: p, ResumePC: resumePC(progs[i], p)})
		}
		return res, nil
	}

	if cut != nil {
		for _, im := range res.Images {
			if _, err := ReplayN(dev, im, int(cut.Param%uint64(len(im.CSQ)+1))); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	res.Points = make([]int, len(progs))
	for i, im := range res.Images {
		o, err := Recover(dev, im, progs[i])
		if err != nil {
			return nil, err
		}
		res.PerCore = append(res.PerCore, o)
		res.Points[i] = im.Committed
		hub.Tracer().Emit(obs.Event{
			Cycle: atCycle,
			Type:  obs.EvInstant,
			Core:  i,
			Name:  "recovery-replay",
			Cat:   "checkpoint",
			Args: [obs.MaxEventArgs]obs.Arg{
				{Key: "resume", Val: int64(o.ResumeIndex)},
				{Key: "words", Val: int64(o.ReplayedWords)},
			},
		})
	}
	return res, nil
}

// Verdict is the judgement on one completed recovery.
type Verdict struct {
	// Lost counts words of the contract-point prefixes whose NVM value is
	// wrong.
	Lost int
	// OracleChecked reports that the lockstep oracle judged the image.
	OracleChecked bool
	// Oracle is the oracle's disagreement (nil when it agreed or did not
	// judge).
	Oracle error
}

// Judge gives the verdict on a completed recovery: the words lost at each
// core's contract point and, when an oracle is attached, its independent
// check that the image equals the golden memory at those points. Schemes
// without a contract (baseline, DRAM-only, ReplayCache) are run to measure
// how badly they miss it, so the oracle does not judge them.
func Judge(dev *nvm.Device, progs []*isa.Program, res *Result, orc *oracle.Machine) Verdict {
	var v Verdict
	for i, prog := range progs {
		v.Lost += CountInconsistencies(dev, prog, res.Points[i])
	}
	if orc == nil {
		return v
	}
	switch res.Contract {
	case persist.RecoverCommittedPrefix:
		v.OracleChecked = true
		v.Oracle = orc.CheckRecovered(dev.Image(), res.Points)
	case persist.RecoverTxnBoundary:
		v.OracleChecked = true
		v.Oracle = orc.CheckRecoveredAt(dev.Image(), res.Points)
	}
	return v
}
