package workloads

import "testing"

func TestTable2Shapes(t *testing.T) {
	rn := ResNet18()
	if len(rn) != 12 {
		t.Fatalf("ResNet-18 layers = %d, want 12", len(rn))
	}
	yolo := Yolo9000()
	if len(yolo) != 11 {
		t.Fatalf("Yolo-9000 layers = %d, want 11", len(yolo))
	}
	// Spot-check rows straight from Table II.
	l1 := rn[0]
	if l1.K != 64 || l1.C != 3 || l1.HIn != 224 || l1.RS != 7 || l1.Stride != 2 {
		t.Fatalf("ResNet L1 = %+v", l1)
	}
	if l1.HOut() != 112 {
		t.Fatalf("ResNet L1 HOut = %d, want 112", l1.HOut())
	}
	l12 := rn[11]
	if l12.K != 512 || l12.C != 512 || l12.HIn != 7 || l12.RS != 3 || l12.Stride != 1 {
		t.Fatalf("ResNet L12 = %+v", l12)
	}
	y11 := yolo[10]
	if y11.K != 28269 || y11.C != 1024 || y11.HIn != 17 || y11.RS != 1 {
		t.Fatalf("Yolo L11 = %+v", y11)
	}
	for _, l := range All() {
		if l.Stride != 1 && l.Stride != 2 {
			t.Fatalf("%s has stride %d", l.Name(), l.Stride)
		}
		if l.HIn%l.Stride != 0 {
			t.Fatalf("%s HIn %d not divisible by stride", l.Name(), l.HIn)
		}
	}
}

func TestAllAndByName(t *testing.T) {
	all := All()
	if len(all) != 23 {
		t.Fatalf("All = %d layers, want 23", len(all))
	}
	l, ok := ByName("yolo9000_L3")
	if !ok || l.K != 128 || l.C != 64 {
		t.Fatalf("ByName = %+v, %v", l, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName false positive")
	}
	// Every layer is found, and a caller changing its copy of All()
	// changes neither ByName's answers nor the next All().
	for i, want := range all {
		if got, ok := ByName(want.Name()); !ok || got != want {
			t.Errorf("ByName(%q) = %+v, %v", want.Name(), got, ok)
		}
		all[i].K = 0
	}
	if l, _ := ByName("yolo9000_L3"); l.K != 128 || All()[14].K != 128 {
		t.Error("modifying All()'s slice leaked into later lookups")
	}
}

func TestProblemsValidate(t *testing.T) {
	for _, l := range All() {
		p, err := l.Problem()
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		if p.Ops() != l.MACs() {
			t.Fatalf("%s: Ops %d != MACs %d", l.Name(), p.Ops(), l.MACs())
		}
	}
}

func TestMACCounts(t *testing.T) {
	// ResNet L2: 64·64·56·56·3·3.
	l := ResNet18()[1]
	if got := l.MACs(); got != 64*64*56*56*9 {
		t.Fatalf("MACs = %d", got)
	}
}

func TestMatMulPresets(t *testing.T) {
	ps := MatMulPresets()
	if len(ps) != 3 {
		t.Fatalf("presets = %d", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
