package recovery

import (
	"errors"
	"testing"

	"ppa/internal/checkpoint"
	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/persist"
	"ppa/internal/pipeline"
)

// twoCorePrograms is a 2-core program set: each thread stores twice, at
// PCs 0x4000, 0x4004, ...
func twoCorePrograms() []*isa.Program {
	progs := make([]*isa.Program, 2)
	for c := range progs {
		p := &isa.Program{}
		for i := 0; i < 8; i++ {
			in := isa.Inst{PC: 0x4000 + 4*uint64(i), Op: isa.OpNop}
			if i%4 == 1 {
				in = isa.Inst{PC: in.PC, Op: isa.OpStore, Src1: isa.Int(1), Addr: 0x1000 + 0x100*uint64(c) + uint64(i)*8}
			}
			p.Insts = append(p.Insts, in)
		}
		progs[c] = p
	}
	return progs
}

// TestRunRefusesImagesThatDoNotMapOntoCores: an area whose CRCs are intact
// but whose images do not map one to one onto the cores is refused as torn,
// never indexed into the machine.
func TestRunRefusesImagesThatDoNotMapOntoCores(t *testing.T) {
	im := func(core int) *checkpoint.Image {
		return &checkpoint.Image{CoreID: core, LCPC: 0x4004, Committed: 2}
	}
	cases := map[string][]*checkpoint.Image{
		"duplicate out-of-range core 5": {im(5), im(5)},
		"duplicate core 0":              {im(0), im(0)},
		"one image for two cores":       {im(0)},
		"three images for two cores":    {im(0), im(1), im(2)},
	}
	for name, images := range cases {
		for _, sch := range []persist.Config{persist.PPADefault(), persist.RedoTxnDefault()} {
			dev := nvm.NewDevice(nvm.DefaultConfig())
			dev.WriteCheckpoint(checkpoint.EncodeAll(images))
			if _, err := LoadImages(dev); err != nil {
				t.Fatalf("%s: the area must decode cleanly for the test to mean anything: %v", name, err)
			}
			_, err := Run(dev, persist.SchemeFor(sch), twoCorePrograms(), nil, 0, nil)
			if !errors.Is(err, ErrTornCheckpoint) {
				t.Fatalf("%s under %v: got %v, want ErrTornCheckpoint", name, sch.Kind, err)
			}
		}
	}
}

// TestRunMatchesImagesByCoreID: images stored out of core order recover
// onto their own cores, and Judge finds each core's committed prefix intact.
func TestRunMatchesImagesByCoreID(t *testing.T) {
	progs := twoCorePrograms()
	// Each core committed through its first store; its CSQ holds that
	// store with the golden value.
	image := func(core int) *checkpoint.Image {
		addr := progs[core].Insts[1].Addr
		val := isa.RunGolden(progs[core], 2).Mem.ReadWord(addr)
		return &checkpoint.Image{CoreID: core, LCPC: 0x4004, Committed: 2,
			CSQ: []pipeline.CSQEntry{{Addr: addr, Val: val, Seq: 1, ValueBearing: true}}}
	}
	dev := nvm.NewDevice(nvm.DefaultConfig())
	dev.WriteCheckpoint(checkpoint.EncodeAll([]*checkpoint.Image{image(1), image(0)}))
	res, err := Run(dev, persist.SchemeFor(persist.PPADefault()), progs, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for core := range progs {
		if res.Images[core].CoreID != core || res.PerCore[core].CoreID != core {
			t.Fatalf("core %d recovered image of core %d", core, res.Images[core].CoreID)
		}
		if res.Points[core] != 2 || res.PerCore[core].ResumeIndex != 2 || res.PerCore[core].ReplayedWords != 1 {
			t.Fatalf("core %d: point %d, outcome %+v", core, res.Points[core], res.PerCore[core])
		}
	}
	v := Judge(dev, progs, res, nil)
	if v.Lost != 0 {
		t.Fatalf("%d words lost", v.Lost)
	}
	if v.OracleChecked || v.Oracle != nil {
		t.Fatalf("judged by an absent oracle: %+v", v)
	}
}
