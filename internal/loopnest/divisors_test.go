package loopnest

import (
	"slices"
	"testing"
)

func TestDivisors(t *testing.T) {
	cases := []struct {
		n    int64
		want []int64
	}{
		{1, []int64{1}},
		{12, []int64{1, 2, 3, 4, 6, 12}},
		{17, []int64{1, 17}},
		{64, []int64{1, 2, 4, 8, 16, 32, 64}},
	}
	for _, c := range cases {
		if got := Divisors(c.n); !slices.Equal(got, c.want) {
			t.Fatalf("Divisors(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestNearestDivisors(t *testing.T) {
	cases := []struct {
		n      int64
		target float64
		k      int
		want   []int64
	}{
		{32, 7, 2, []int64{8, 4}},               // log distance, nearest first
		{12, 0.5, 1, []int64{1}},                // a target below 1 counts as 1
		{12, 1, 99, []int64{1, 2, 3, 4, 6, 12}}, // k clamped to the divisor count
		{4, 2, 3, []int64{2, 1, 4}},             // 1 and 4 tie at ratio 2: the smaller first
	}
	for _, c := range cases {
		if got := NearestDivisors(c.n, c.target, c.k); !slices.Equal(got, c.want) {
			t.Errorf("NearestDivisors(%d, %g, %d) = %v, want %v", c.n, c.target, c.k, got, c.want)
		}
	}
}
