package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// The benchmark reports its workloads' times in units of a fixed
// reference routine, timed right before and right after each of the
// workload's operations. On a shared host the same code runs up to twice
// as slow for minutes at a time while the host's other tenants compete
// for its caches and memory; compute that stays within a core's own
// cache slows far less. The reference is allocation- and GC-heavy Go
// code with a heap of a few MiB, as the optimizer and the service are,
// and it slows with them. Over 20 passes of table2-energy whose times
// ranged from 0.78 to 1.40 of their median, pass time over reference
// time stayed within 0.95-1.07 of its median.
//
// The reference runs in a process of its own: this program again, with
// refEnv set. In the workload's process its GC would mark the workload's
// live heap too, and a traced window's reference, next to the tracer's
// spans, read 1.5 times the untraced window's. The reference belongs to
// the benchmark, not to the program, so no change to the program alters
// it.

// refEnv names the environment variable that makes this program the
// reference process.
const refEnv = "THISTLE_BENCH_REFERENCE"

// refNodes is how many objects one reference run allocates: about
// 25 MiB, in about 23 ms on an idle 2-vCPU Xeon VM.
const refNodes = 400_000

type refNode struct {
	next *refNode
	v    [6]float64
}

// refSink keeps the reference's work from being optimized away.
var refSink any

// reference runs the reference routine once and returns its wall time.
// It builds a linked list of small objects, indexing every eighth in a
// map, and drops both every 4096 objects, so the GC runs several times a
// run over a live heap that stays small.
func reference() time.Duration {
	t0 := time.Now()
	var head *refNode
	m := map[int]*refNode{}
	for i := 0; i < refNodes; i++ {
		head = &refNode{next: head}
		head.v[0] = float64(i)
		if i%8 == 0 {
			m[i] = head
		}
		if i%4096 == 0 {
			head, m = nil, map[int]*refNode{}
		}
	}
	refSink = m
	return time.Since(t0)
}

// runReference is the reference process's main: for every byte read
// from standard input it runs the reference once and writes the run's
// wall time in nanoseconds as a line to standard output, until standard
// input ends.
func runReference() int {
	runtime.GOMAXPROCS(1)
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadByte(); err == io.EOF {
			return 0
		} else if err != nil {
			fmt.Fprintln(os.Stderr, "bench: reference:", err)
			return 1
		}
		if _, err := fmt.Println(int64(reference())); err != nil {
			fmt.Fprintln(os.Stderr, "bench: reference:", err)
			return 1
		}
	}
}

// refProc is a running reference process.
type refProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startReference() (*refProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), refEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the reference process: %w", err)
	}
	return &refProc{cmd, in, bufio.NewReader(out)}, nil
}

// run has the reference process run the reference once, and returns the
// run's wall time.
func (r *refProc) run() (time.Duration, error) {
	if _, err := r.in.Write([]byte{'\n'}); err != nil {
		return 0, fmt.Errorf("reference process: %w", err)
	}
	var ns int64
	if _, err := fmt.Fscanln(r.out, &ns); err != nil {
		return 0, fmt.Errorf("reference process: %w", err)
	}
	return time.Duration(ns), nil
}

// close ends the reference process's input and waits for it to exit.
func (r *refProc) close() error {
	if err := r.in.Close(); err != nil {
		return err
	}
	return r.cmd.Wait()
}

// pass is one pass over a workload's operations, each timed between two
// reference runs.
type pass struct {
	ref *refProc
	err error // the first error of the reference process
	// refs[i] is the mean of the reference runs right before and right
	// after op i.
	ops, refs []time.Duration
	mem       memStats // allocations of the operations alone
}

// timeOp runs the reference, op, and the reference again, and records
// the times and the operation's allocations. A single 23 ms reference run
// reads up to 1.5 times its neighbour's time on a busy host; bracketing
// each operation doubles the samples and centres them on the operation.
// After an error of the reference process, it does nothing.
func (p *pass) timeOp(op func()) {
	if p.err != nil {
		return
	}
	before, err := p.ref.run()
	if err != nil {
		p.err = err
		return
	}
	mem := readMem()
	t0 := time.Now()
	op()
	p.ops = append(p.ops, time.Since(t0))
	p.mem = p.mem.add(readMem().sub(mem))
	after, err := p.ref.run()
	if err != nil {
		p.err = err
		return
	}
	p.refs = append(p.refs, (before+after)/2)
}

// measurePasses runs passes until the window is over. A pass starts only
// if, at the speed of the one before, it ends within the window; the
// first always runs. Passes always complete, so every operation of a
// pass is measured equally often.
//
// The window runs on one processor, GOMAXPROCS 1. With two, the GC's
// background work runs on the second vCPU, whose share of a core the
// host varies independently of the first, and pass time over reference
// time spread three times as widely (quartiles 6% apart against 2%, in
// alternating passes of table2-energy).
func measurePasses(window time.Duration, run func(p *pass) error) (passes []*pass, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref, err := startReference()
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := ref.close(); err == nil {
			err = cerr
		}
	}()
	if _, err := ref.run(); err != nil { // the first run is not timed
		return nil, err
	}
	start := time.Now()
	var last time.Duration // the last pass's wall time
	for len(passes) == 0 || time.Since(start)+last <= window {
		t := time.Now()
		p := &pass{ref: ref}
		if err := run(p); err != nil {
			return nil, err
		}
		if p.err != nil {
			return nil, p.err
		}
		passes = append(passes, p)
		last = time.Since(t)
	}
	return passes, nil
}

// passStats summarizes a window's passes.
type passStats struct {
	// inRefs is the window's mean operation time in reference units: its
	// operations' total time over the total time of the reference runs
	// around them. Over three sets of ten runs of each workload, its
	// quartile spread was a fifth narrower on average than that of the
	// median pass in reference units.
	inRefs float64
	passes []float64     // each pass's inRefs, in order
	wall   time.Duration // median pass, the operations' total time
	ref    time.Duration // median reference run
	ops    int
	mem    memStats // the operations' allocations
}

func summarize(passes []*pass) passStats {
	var s passStats
	walls := make([]time.Duration, len(passes))
	var ops, refs []time.Duration
	for i, p := range passes {
		s.passes = append(s.passes, float64(sum(p.ops))/float64(sum(p.refs)))
		walls[i] = sum(p.ops)
		ops = append(ops, p.ops...)
		refs = append(refs, p.refs...)
		s.mem = s.mem.add(p.mem)
	}
	s.ops = len(ops)
	s.inRefs = float64(sum(ops)) / float64(sum(refs))
	s.wall, s.ref = quantile(walls, 0.5), quantile(refs, 0.5)
	return s
}
