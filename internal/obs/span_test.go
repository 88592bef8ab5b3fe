package obs

import (
	"context"
	"sync"
	"testing"
)

func TestSpanNestingAndOrdering(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan(nil, "root", String("layer", "L6"))
	b := tr.StartSpan(root, "first")
	d := tr.StartSpan(b, "inner")
	d.End()
	b.End()
	c := tr.StartSpan(root, "second", Int("pair", 3))
	c.End()
	root.SetAttr("status", "ok")
	root.End()

	tree := tr.Tree()
	if len(tree) != 1 {
		t.Fatalf("want 1 root span, got %d", len(tree))
	}
	r := tree[0]
	if r.Name != "root" || r.Attrs["layer"] != "L6" || r.Attrs["status"] != "ok" {
		t.Fatalf("root snapshot wrong: %+v", r)
	}
	if len(r.Children) != 2 || r.Children[0].Name != "first" || r.Children[1].Name != "second" {
		t.Fatalf("children order wrong: %+v", r.Children)
	}
	if got := r.Children[1].Attrs["pair"]; got != int64(3) {
		t.Fatalf("int attr = %v (%T), want int64(3)", got, got)
	}
	inner := r.Children[0].Children
	if len(inner) != 1 || inner[0].Name != "inner" {
		t.Fatalf("nesting wrong: %+v", inner)
	}
	if r.DurUS < 0 {
		t.Fatalf("ended root has negative duration: %d", r.DurUS)
	}
	for _, c := range r.Children {
		if c.StartUS < r.StartUS {
			t.Fatalf("child starts before parent: %+v inside %+v", c, r)
		}
	}
}

func TestSpanUnendedAndText(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan(nil, "open")
	tr.StartSpan(root, "leaf").End()

	tree := tr.Tree()
	if tree[0].DurUS != -1 {
		t.Fatalf("unended span should report dur -1, got %d", tree[0].DurUS)
	}
	if kids := tree[0].Children; len(kids) != 1 || kids[0].Name != "leaf" || kids[0].DurUS < 0 {
		t.Fatalf("ended child of an unended span wrong: %+v", kids)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan(nil, "root")
	var wg sync.WaitGroup
	const n = 32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := tr.StartSpan(root, "worker", Int("id", i))
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(tr.Tree()[0].Children); got != n {
		t.Fatalf("got %d children, want %d", got, n)
	}
}

func TestContextSpanAPI(t *testing.T) {
	o := &Obs{Tracer: NewTracer()}
	ctx := NewContext(context.Background(), o)
	if FromContext(ctx) != o {
		t.Fatal("FromContext lost the Obs")
	}
	ctx1, s1 := StartSpan(ctx, "outer")
	_, s2 := StartSpan(ctx1, "inner")
	s2.End()
	s1.End()
	tree := o.Tracer.Tree()
	if len(tree) != 1 || len(tree[0].Children) != 1 || tree[0].Children[0].Name != "inner" {
		t.Fatalf("context nesting wrong: %+v", tree)
	}

	// Without an Obs in the context, StartSpan is a transparent no-op.
	bg := context.Background()
	ctx2, s := StartSpan(bg, "nothing")
	if s != nil || ctx2 != bg {
		t.Fatal("disabled StartSpan should return the original context and nil span")
	}
	s.End() // must not panic
}
