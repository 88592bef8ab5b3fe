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
	"resnet18_L1":  {"fbb2cb53b8e1d8e8f409ed649ef89a31fa845e5b79ec999a264aa53282f91914", "0613221d188d59eb3338ee08851dd33db4e4541405141be12928b89843cd2233"},
	"resnet18_L2":  {"cb276dcf244d0c802b7dd733dcb0a165f10a1e19970b97eb0805510ea8dd5a6c", "5abd218acd2ef3802e3180fbf7e2dfd77bb6b7e6e816e8d143d0318291efea07"},
	"resnet18_L3":  {"3119e40e741217959d4ef8344f80568b6ee8e23d7c475a864239426640d528b6", "d1ec751c6041c99a05dedad6d81a1a9c84c4158e7c4f33709365348fc1d0a3b6"},
	"resnet18_L4":  {"72445b3a8b8ee98e220a655c5605e649ba6b1fe4c67f5660c54272aea73593b3", "3b81cdeb3e076d1a23c4d46ce828a7afaa34d786db40a0ebe92a7895a38bd49b"},
	"resnet18_L5":  {"ae5c983eb6476f40be944c6f1e8345953a50d032b4892772921e3a56879cd661", "bc5aba8e4758026c3c1e983084106e3588da3f172d8b88f9dc0e144c439b80bd"},
	"resnet18_L6":  {"922f55f11e740980eb27449ac66819674b45f4f24ae8695246a6d2790e8c3f20", "3bc16a9e3391cf3e4793bafeb32d8804b7e21cd3fc3a058d7415eaada65e8931"},
	"resnet18_L7":  {"0d7ce1588d63a7681c48bc9ba19706d11be8d77b44f1447314515cf589f9c58c", "5e24bc1f6922b6d878863b9c417896bb9e99b71500c2d0bb5edb97661ad392ec"},
	"resnet18_L8":  {"33538399e0c75603468d850f87381d1800f06a8c1f87f45f92a0387a34ddbd4f", "f58fee98772cfa41fe8627b49c8a7270897d3f532d456029b21d73d3298d327a"},
	"resnet18_L9":  {"ab9205b98334ad14742c37fd0c413fa7ba25c48e987711472fc35cff2e51cae7", "e429ebed143baa6d4198144c0192d2068ca4d528a0f153f8727fa79065952d0e"},
	"resnet18_L10": {"2a08f744ad49f42a30d1229b906e29f7c9391e5e06ddbd1d92eaeed729098a6d", "9fab5f83083f3cc9fee6ed3bda94b01aae1332e49834afda99ab2f114154b64b"},
	"resnet18_L11": {"0888e56bce9ab92318485cdc3e640b15d22ef6e84fe06b9d605264f9b5969190", "a423e18c6d30fa5c27432fff3acb8bffb5776c03025c2272756dce9d81994b6e"},
	"resnet18_L12": {"84509cefdc4ede285ffb750b9eca2eb0b8fc2bdb82af7a38c91ff510b1b4a318", "53bdcde2325c289348698afdb722bd79c742cf9f21b0bdb58e7b19cd714e6af0"},
	"yolo9000_L1":  {"de111c2d65ab3cb8ae88da0243808c96c925c5db890a00f495e2540d12e0cf14", "aeabae22bec86cec86c52616f08330b7d4c06428b317ed774ed7219a69f02cc0"},
	"yolo9000_L2":  {"e8a96d9bdb8cdf4eaaf5db66451bf90ce496facb0070c0f4c578a69615e96497", "c3245ba8b08fafca2ff1ff250a57cfad43e8aba272c57318f3be9dc3ee590796"},
	"yolo9000_L3":  {"f934f447edcce8f96aae0f2f24c942cff69433cfab71c54d0f73b25753ab3260", "78346ab7afd9fa9d6999e322f6efc232efc30f6300b544761b36964711ac2968"},
	"yolo9000_L4":  {"2d0d5a6c0d645670510c7de758bcdc8492561ff1973695f11e5040f36c06d2ba", "13f2eddab93cba690bb2ebfbbeedaa41d49f94b25db5729ae5a91177d8720dde"},
	"yolo9000_L5":  {"ac45ccf138d98a9b4a45e0257c543425f220aa270254f4f776aad4d9ee5dd781", "5dbfe9f9ca23aaf2eb6ac362d608b3f68b32cc297723479065671c89794d77b6"},
	"yolo9000_L6":  {"ed908f4c222f26dedbd9e3400157c5c5be892db3e8e482188be22f38da512e94", "bd65916ca6f1e6b21c4751b3ede4bda04d51336a641c207d7c27fbaf98371343"},
	"yolo9000_L7":  {"5bd73606bef05e47e1f481ed9ed5a96d116f533912232826baf4038ab75c4d73", "34926f7cf7d895c5cfe5e448abd7a07003feeb5105097ea53242f075ac4bdd6f"},
	"yolo9000_L8":  {"8d31e0d699d6560e10060273162ca31f50a3927dcc39dc3889380abd5c18fc63", "709844853de9d8ee091361b4629919e71b8cf57f50bd8e22c8453256e22f2c0e"},
	"yolo9000_L9":  {"5bfe29a8247348bbacbfb120dcdac1e95a61ba0ea04580cc7918b9a5a6171563", "6c85f6c04049591aa392d2d6011b7d482054a2ecaf9abb99ca700ee3d127d2e0"},
	"yolo9000_L10": {"333d443b92f14c0cdd60bf73a4633136ae1f5552573d114bcfe62f770454c5e3", "9e94ab0bf61ce66870456fc89cf0db07be7c0cf86d0cc2e1786b434aa8daa5a0"},
	"yolo9000_L11": {"3a29d1b621ef00511b58684956e16859f04af87d4c34e8d55d516395a0339b33", "80b53767d20ffdcb042cb30ec6f911f396ab23c76166f6e211986f71c0e4e210"},
}

// goldenMatMulSignature pins the default-options signature of a
// 256×256×256 MatMul, a problem with no kernel iterators.
const goldenMatMulSignature = "f4139d2c06d5a2d9526aed8b3ff41c13552aa9e475d25cf1518abee81ce58a6a"

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
