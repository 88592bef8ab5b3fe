// Package workloads encodes the evaluation workloads of the paper's
// Table II: all convolution layers of ResNet-18 and Yolo-9000 (batch 1),
// plus matrix-multiplication presets used by the overview examples.
//
// Table II conventions: K = output channels, C = input channels, H = W =
// input image height/width, R = S = kernel size, stride 2 where marked,
// else 1. The loop-nest IR uses output feature-map extents, so H_out =
// ceil(H_in/stride) (all Table II shapes divide evenly; the 7×7 stride-2
// ResNet stem uses the conventional 112×112 output).
package workloads

import (
	"fmt"
	"sync"

	"repro/internal/loopnest"
)

// Layer is one Table II row.
type Layer struct {
	Pipeline string // "resnet18" or "yolo9000"
	Index    int    // 1-based layer number as in Table II
	K, C     int64
	HIn      int64 // input image height/width (Table II's H/W column)
	RS       int64 // kernel size (R = S)
	Stride   int64
}

// Name returns a stable identifier like "resnet18_L4".
func (l Layer) Name() string {
	return fmt.Sprintf("%s_L%d", l.Pipeline, l.Index)
}

// HOut returns the output feature-map extent.
func (l Layer) HOut() int64 { return l.HIn / l.Stride }

// Problem converts the layer to the loop-nest IR.
func (l Layer) Problem() (*loopnest.Problem, error) {
	return loopnest.Conv2D(loopnest.Conv2DConfig{
		Name:    l.Name(),
		N:       1,
		K:       l.K,
		C:       l.C,
		H:       l.HOut(),
		W:       l.HOut(),
		R:       l.RS,
		S:       l.RS,
		StrideX: l.Stride,
		StrideY: l.Stride,
	})
}

// Problems converts each layer to the loop-nest IR, in order.
func Problems(layers []Layer) ([]*loopnest.Problem, error) {
	probs := make([]*loopnest.Problem, len(layers))
	for i, l := range layers {
		p, err := l.Problem()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name(), err)
		}
		probs[i] = p
	}
	return probs, nil
}

// MACs returns the layer's multiply-accumulate count.
func (l Layer) MACs() int64 {
	h := l.HOut()
	return l.K * l.C * h * h * l.RS * l.RS
}

// ResNet18 returns the 12 convolution stages of Table II (left columns
// give Yolo; these are the right columns).
func ResNet18() []Layer {
	rows := []struct {
		k, c, h, rs, stride int64
	}{
		{64, 3, 224, 7, 2},
		{64, 64, 56, 3, 1},
		{64, 64, 56, 1, 1},
		{128, 64, 56, 3, 2},
		{128, 64, 56, 1, 2},
		{128, 128, 28, 3, 1},
		{256, 128, 28, 3, 2},
		{256, 128, 28, 1, 1},
		{256, 256, 14, 3, 1},
		{512, 256, 14, 3, 2},
		{512, 256, 14, 1, 2},
		{512, 512, 7, 3, 1},
	}
	out := make([]Layer, len(rows))
	for i, r := range rows {
		out[i] = Layer{
			Pipeline: "resnet18", Index: i + 1,
			K: r.k, C: r.c, HIn: r.h, RS: r.rs, Stride: r.stride,
		}
	}
	return out
}

// Yolo9000 returns the 11 convolution stages of Table II.
func Yolo9000() []Layer {
	rows := []struct {
		k, c, h, rs int64
	}{
		{32, 3, 544, 3},
		{64, 32, 272, 3},
		{128, 64, 136, 3},
		{64, 128, 136, 1},
		{256, 128, 68, 3},
		{128, 256, 68, 1},
		{512, 256, 34, 3},
		{256, 512, 34, 1},
		{1024, 512, 17, 3},
		{512, 1024, 17, 1},
		{28269, 1024, 17, 1},
	}
	out := make([]Layer, len(rows))
	for i, r := range rows {
		out[i] = Layer{
			Pipeline: "yolo9000", Index: i + 1,
			K: r.k, C: r.c, HIn: r.h, RS: r.rs, Stride: 1,
		}
	}
	return out
}

// All returns both pipelines concatenated (ResNet-18 first), the layer
// set the paper's figures sweep.
func All() []Layer {
	return append(ResNet18(), Yolo9000()...)
}

// Pipeline returns the layers of the pipeline named "resnet18",
// "yolo9000" or "all".
func Pipeline(name string) ([]Layer, error) {
	switch name {
	case "resnet18":
		return ResNet18(), nil
	case "yolo9000":
		return Yolo9000(), nil
	case "all":
		return All(), nil
	}
	return nil, fmt.Errorf("unknown pipeline %q (resnet18 | yolo9000 | all)", name)
}

// ByName finds a layer by its Name() identifier.
func ByName(name string) (Layer, bool) {
	l, ok := byName()[name]
	return l, ok
}

// byName indexes All() by Name(), built once on first use.
var byName = sync.OnceValue(func() map[string]Layer {
	all := All()
	m := make(map[string]Layer, len(all))
	for _, l := range all {
		m[l.Name()] = l
	}
	return m
})

// MatMulPresets returns the matrix-multiplication problems used by the
// quickstart example and the Fig. 1 sanity benchmarks.
func MatMulPresets() []*loopnest.Problem {
	return []*loopnest.Problem{
		loopnest.MatMul(256, 256, 256),
		loopnest.MatMul(1024, 1024, 1024),
		loopnest.MatMul(4096, 512, 128),
	}
}
