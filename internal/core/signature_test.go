package core

import (
	"testing"

	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/workloads"
)

// goldenSignatures pins SolveSignature of every Table II layer, under
// the default options (energy on a fixed Eyeriss) and under co-design
// for delay. Solve signatures name the persistent cache records and
// appear in every manifest and thistled row, so a change to any of
// them orphans existing records: it must come with a SchemaVersion
// bump, never by accident.
var goldenSignatures = map[string]struct{ energy, codesignDelay string }{
	"resnet18_L1":  {"2d33b4a226852b6c5b6f7c001d2310b8ae4028931fd997f9edbe20a2f2a473dd", "757b351fbfbc8014da115f78cd27759ba5df142357cb7d19573595dd512842d3"},
	"resnet18_L2":  {"341aa76e5425a44693500dba3a87663d551c5e635a30d044982e465bcffb2219", "b9fb781e58066beaaa038188b0e9618133c83e54dddf22652aaee8658b16a686"},
	"resnet18_L3":  {"f8e30723f0aa8c83015b94ff039dd8f5980a613d09a6a7b406196849fa053d66", "24c574efc882a6e3a965934082c9faf1a00f636eb6312d9d11112b2e6f4bf357"},
	"resnet18_L4":  {"173a1509bfb80e34754db4040d2acca4ca6662f56852de56669a118b8997585d", "da99aadda53fdcbdbd6b152259567a0e1f69a23a038ad962a1c7d3eb364995c3"},
	"resnet18_L5":  {"92552a570e2b14d42c9687c99c09db60da48549d353e0b7805b55a252ee031cf", "3e7113f41f73800218026f17b955127a57988ef5c32ad4f882a741b204e6290f"},
	"resnet18_L6":  {"945f3cd7e1becf112ac1aa3da41b3996638b485928c286f142f4ffbf0283b699", "82b1f581a10b0fe2f10a281ba6ddb8fff674d83e39f66c00f05befcbdb620468"},
	"resnet18_L7":  {"ee90e1f8653724b0595fabfc05ce13ae21969a2b0d6f9b89e67c7ee89496f519", "3b13fb415009eca6bacfa83a1244a25fcc0d815b1a6b4ee7433e114cf64bfdf8"},
	"resnet18_L8":  {"71f18bdc57826ccab5054b0f29bb9626c756b4e6a68652bf48914a0abef46ec4", "dc1e87bb770ae79304df6d347f7f5f26dcba1c5db40f26261fb2a3cf93c43859"},
	"resnet18_L9":  {"8889a7b6e4a0da8aef50b287bd2e9776b9fb366d03f84724a522ff3a26e02aaa", "dc5bf9ce13ee44d79d63777647cf01906764d0d077730b7a3ba96c504f44e385"},
	"resnet18_L10": {"fcbf378ad8f651e1a74743d4a086edd28ada4e5bc132c9040953a630fc743186", "ca457e029a51177fdfe815aff1a519e13f67d94cba5418c131c319d478a15c6b"},
	"resnet18_L11": {"064836e16364c022531592fcfa553b735dfa9feeb7b467487d3dccba25592031", "b54fff739bedc2b6f92e67f3077510615d52d34fad385cc8f573ee81e9ba27fa"},
	"resnet18_L12": {"ccc75e2428d582b536c642664b29979adc958a326ff22249be02d4a9476d8291", "50a40eee550ab2a0c6657ed4550232d6a1d45e1b7f64993caf81d8f4cff66220"},
	"yolo9000_L1":  {"0ea42c09a8bc26437d98ea8a504328c4b68f28d87f939d6f7f33e42ce2a07538", "bc99f51f2760b0d452838ff8a177a73fad745f59cc1665aa983f6da4b9e7aaa5"},
	"yolo9000_L2":  {"7aeea05b19e5b4230f7e11c247e945c608ad6b7d12f9bdf56eb8c095a353a354", "0cd5817ee7f2851bb5ac6585fedbf3da601a51a5cd7d690c027918bb4a4b4869"},
	"yolo9000_L3":  {"3f049d9fedeed39cd3f13e104b42768b3754d94066f5162e344a67558149ed7e", "a13e7fabce6d7bf054231f435694d56509392c1ecff2a8bd3e27ab501b1d7ef6"},
	"yolo9000_L4":  {"96850c7fe5f43e88a9a373605cbe9609826b76d662ad3bb46272f834039abb24", "4b521ecab73a014a221dbec26344e9742fa3d710fd5116c5d526cba273e72d2d"},
	"yolo9000_L5":  {"112ffde29f89c6e6f67a0953230a9f707ecd5afc394797e25033dcb839538953", "8658bcd5458fcd056bbd49021b302ff15772c5f532572bdc4162976e5327fb5b"},
	"yolo9000_L6":  {"388809f57165bf8984e3416ba1e9c49d43bccd6a4093e96462db191455f1dba4", "5f1d24315883c00e6ed4c543eb121862b8d262ec1c4cce4e621c06c21e674e8a"},
	"yolo9000_L7":  {"c9ecce355a7b9089568f9e235b6f0a011d066339212e642501c25874dfcc0297", "625c3bc0d4b7ee611435fb1f69c76636c87c5069a2bb10fd559b0558a8d6c004"},
	"yolo9000_L8":  {"5b1a74879b9b3a68c10e1f1c46ad692e541e97a3dabfe9e619242b57f89bb3a6", "b47a1526345eb177603c874040430ac6cc1aa6e3ec4d0f4ca90dc6014f13302b"},
	"yolo9000_L9":  {"36c65a670730a4dbc2f5609d61b196b4a12cadf8a8f46bdc692708aa111cb1af", "1580fee81632a93cdaf62058d424e1e3bef68f81e0b5f0b336f02bffb07a0a89"},
	"yolo9000_L10": {"05c971fba33e93168c749b91903c2398cbf7892de76314f38a00e7837c179b5c", "d80162a7d54afefb208d62f690beb18851f6597e143f2e939a51e7eb4a86cb16"},
	"yolo9000_L11": {"77eb08174dd5e9d141503f2da7fdc02074bb589a70a6510d6c8ab77590dda37a", "762121ce06233ccf9b1ecbd818314ad9f1452f4b3cf3700f3b28ed7ca9282a9d"},
}

// goldenMatMulSignature pins the default-options signature of a
// 256×256×256 MatMul, a problem with no kernel iterators.
const goldenMatMulSignature = "c83b968327ede571a0ea7832ac5c32be453280813fa3a18588ea68cc0ed76119"

func TestSolveSignatureGolden(t *testing.T) {
	energy := Options{}
	delay := Options{Criterion: model.MinDelay, Mode: CoDesign}
	layers := workloads.All()
	if len(layers) != len(goldenSignatures) {
		t.Fatalf("%d Table II layers, %d golden signatures", len(layers), len(goldenSignatures))
	}
	for _, l := range layers {
		p, err := l.Problem()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := goldenSignatures[l.Name()]
		if !ok {
			t.Errorf("%s: no golden signature", l.Name())
			continue
		}
		if got := SolveSignature(p, energy).String(); got != want.energy {
			t.Errorf("%s energy: signature %s, want %s", l.Name(), got, want.energy)
		}
		if got := SolveSignature(p, delay).String(); got != want.codesignDelay {
			t.Errorf("%s delay co-design: signature %s, want %s", l.Name(), got, want.codesignDelay)
		}
	}
	if got := SolveSignature(loopnest.MatMul(256, 256, 256), energy).String(); got != goldenMatMulSignature {
		t.Errorf("matmul: signature %s, want %s", got, goldenMatMulSignature)
	}
}

// TestSolveSignaturePinned pins SolveSignature of resnet18_L12 under
// option sets beyond TestSolveSignatureGolden's two: the EDP criterion,
// a non-default divisor width and the pruning ablation hash options and
// search constants that the default runs hash only at their defaults.
// The energy default names the record check.sh's disk-cache gate
// requires.
func TestSolveSignaturePinned(t *testing.T) {
	l, _ := workloads.ByName("resnet18_L12")
	p, err := l.Problem()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts Options
		want string
	}{
		{"energy default", Options{}, "ccc75e2428d582b536c642664b29979adc958a326ff22249be02d4a9476d8291"},
		{"delay co-design", Options{Criterion: model.MinDelay, Mode: CoDesign}, "50a40eee550ab2a0c6657ed4550232d6a1d45e1b7f64993caf81d8f4cff66220"},
		{"edp", Options{Criterion: model.MinEDP}, "0772a90eed9e939ddbcee2ebbd665ef80f9e2c9a4d800b39535d4fbcad21076d"},
		{"edp co-design", Options{Criterion: model.MinEDP, Mode: CoDesign}, "99dfea339eb78ce4ea1b62d0d2c4afa1fc0900fa363283488392d7fece9c1cbd"},
		{"energy ndiv 3", Options{NDiv: 3}, "23b856a62a07de5962dc283669b29052e8467a21ba69b26406a80fc58d6d13dd"},
		{"delay ndiv 2", Options{Criterion: model.MinDelay, NDiv: 2}, "77d7ebe120336c425a63b7129b3906412025afaaf3681d75d7fdffccd2eeddd4"},
		{"no pruning", Options{DisablePruning: true}, "b5d56492df8ba600569c206732bb6b8ea39c83940ab5be59cecde4cfa598d672"},
	} {
		if got := SolveSignature(p, c.opts).String(); got != c.want {
			t.Errorf("%s: signature %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSolveSignatureAllocs bounds the allocations of one signature: a
// warm thistled request computes one per layer.
func TestSolveSignatureAllocs(t *testing.T) {
	l, _ := workloads.ByName("resnet18_L6")
	p, err := l.Problem()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{}
	if n := testing.AllocsPerRun(100, func() { SolveSignature(p, opts) }); n > 16 {
		t.Errorf("SolveSignature: %.0f allocations, want at most 16", n)
	}
}
