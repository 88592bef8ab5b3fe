// Package specs reads and writes Timeloop-style specification documents
// (the paper's Fig. 3): problem descriptions (dimensions, data spaces
// with projections, instance sizes), architecture descriptions (the
// DRAM/SRAM/PE-array subtree), and mappings (per-target factors and
// permutations). Thistle design points are exported in this format so
// that, as in the paper's evaluation flow, the optimizer's output is a
// specification the accelerator model consumes.
package specs

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/mapper"
	"repro/internal/model"
	"repro/internal/yamlite"
)

// ErrBadSpec reports malformed specification content.
var ErrBadSpec = errors.New("specs: invalid specification")

// ---------- Problem specs (Fig. 3(b)) ----------

// FromProblem renders a loop-nest problem as a Timeloop-style problem
// spec node.
func FromProblem(p *loopnest.Problem) *yamlite.Node {
	shape := yamlite.NewMap()
	shape.Set("name", yamlite.NewScalar(p.Name))
	dims := yamlite.NewSeq()
	for _, it := range p.Iters {
		dims.Append(yamlite.NewScalar(strings.ToUpper(it.Name)))
	}
	shape.Set("dimensions", dims)
	spaces := yamlite.NewSeq()
	for _, t := range p.Tensors {
		ds := yamlite.NewMap()
		ds.Set("name", yamlite.NewScalar(t.Name))
		proj := yamlite.NewSeq()
		for _, d := range t.Dims {
			proj.Append(yamlite.NewScalar(formatIndexExpr(p, d)))
		}
		ds.Set("projection", proj)
		if t.ReadWrite {
			ds.Set("read-write", yamlite.NewBool(true))
		}
		spaces.Append(ds)
	}
	shape.Set("data-spaces", spaces)
	inst := yamlite.NewMap()
	for _, it := range p.Iters {
		inst.Set(strings.ToUpper(it.Name), yamlite.NewInt(it.Extent))
	}
	root := yamlite.NewMap()
	prob := yamlite.NewMap()
	prob.Set("shape", shape)
	prob.Set("instance", inst)
	root.Set("problem", prob)
	return root
}

func formatIndexExpr(p *loopnest.Problem, e loopnest.IndexExpr) string {
	parts := make([]string, 0, len(e.Terms))
	for _, t := range e.Terms {
		name := strings.ToUpper(p.Iters[t.Iter].Name)
		if t.Stride == 1 {
			parts = append(parts, name)
		} else {
			parts = append(parts, fmt.Sprintf("%d*%s", t.Stride, name))
		}
	}
	return strings.Join(parts, "+")
}

// ParseProblem reconstructs a loop-nest problem from a problem spec.
func ParseProblem(root *yamlite.Node) (*loopnest.Problem, error) {
	prob := root.Get("problem")
	if prob == nil {
		return nil, fmt.Errorf("%w: missing problem", ErrBadSpec)
	}
	shape := prob.Get("shape")
	inst := prob.Get("instance")
	if shape == nil || inst == nil {
		return nil, fmt.Errorf("%w: missing shape/instance", ErrBadSpec)
	}
	name, _ := shape.Get("name").Str()
	dimsNode := shape.Get("dimensions")
	if dimsNode == nil || dimsNode.Kind != yamlite.Seq {
		return nil, fmt.Errorf("%w: missing dimensions", ErrBadSpec)
	}
	p := &loopnest.Problem{Name: name}
	index := map[string]int{}
	for _, d := range dimsNode.Items {
		dn, err := d.Str()
		if err != nil {
			return nil, fmt.Errorf("%w: bad dimension: %v", ErrBadSpec, err)
		}
		ext, err := inst.Get(dn).Int()
		if err != nil {
			return nil, fmt.Errorf("%w: missing instance extent for %s", ErrBadSpec, dn)
		}
		index[dn] = len(p.Iters)
		p.Iters = append(p.Iters, loopnest.Iter{Name: strings.ToLower(dn), Extent: ext})
	}
	spaces := shape.Get("data-spaces")
	if spaces == nil || spaces.Kind != yamlite.Seq {
		return nil, fmt.Errorf("%w: missing data-spaces", ErrBadSpec)
	}
	for _, ds := range spaces.Items {
		tname, err := ds.Get("name").Str()
		if err != nil {
			return nil, fmt.Errorf("%w: data space without name", ErrBadSpec)
		}
		t := loopnest.Tensor{Name: tname}
		if rw := ds.Get("read-write"); rw != nil {
			v, err := rw.Bool()
			if err != nil {
				return nil, fmt.Errorf("%w: bad read-write on %s", ErrBadSpec, tname)
			}
			t.ReadWrite = v
		}
		proj := ds.Get("projection")
		if proj == nil || proj.Kind != yamlite.Seq {
			return nil, fmt.Errorf("%w: missing projection on %s", ErrBadSpec, tname)
		}
		for _, pe := range proj.Items {
			s, err := pe.Str()
			if err != nil {
				return nil, fmt.Errorf("%w: bad projection on %s", ErrBadSpec, tname)
			}
			ie, err := parseIndexExpr(s, index)
			if err != nil {
				return nil, fmt.Errorf("%w: %s: %v", ErrBadSpec, tname, err)
			}
			t.Dims = append(t.Dims, ie)
		}
		p.Tensors = append(p.Tensors, t)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseIndexExpr(s string, index map[string]int) (loopnest.IndexExpr, error) {
	var e loopnest.IndexExpr
	for _, part := range strings.Split(s, "+") {
		part = strings.TrimSpace(part)
		stride := int64(1)
		name := part
		if i := strings.Index(part, "*"); i >= 0 {
			v, err := strconv.ParseInt(strings.TrimSpace(part[:i]), 10, 64)
			if err != nil {
				return e, fmt.Errorf("bad stride in %q", part)
			}
			stride = v
			name = strings.TrimSpace(part[i+1:])
		}
		it, ok := index[name]
		if !ok {
			return e, fmt.Errorf("unknown dimension %q", name)
		}
		e.Terms = append(e.Terms, loopnest.IndexTerm{Iter: it, Stride: stride})
	}
	return e, nil
}

// ---------- Architecture specs (Fig. 3(a)) ----------

// FromArch renders an architecture as the three-level subtree of
// Fig. 3(a): DRAM at the system level, a chip with the shared SRAM, and
// a PE array with a register file and MAC unit per PE.
func FromArch(a *arch.Arch) *yamlite.Node {
	dram := yamlite.NewMap()
	dram.Set("attributes", yamlite.NewMap().
		Set("read_bandwidth", yamlite.NewFloat(a.Tech.BWDRAM)).
		Set("type", yamlite.NewScalar("LPDDR4")).
		Set("word-bits", yamlite.NewInt(int64(a.Tech.WordBits))).
		Set("write_bandwidth", yamlite.NewFloat(a.Tech.BWDRAM)))
	dram.Set("class", yamlite.NewScalar("DRAM"))
	dram.Set("name", yamlite.NewScalar("DRAM"))

	sram := yamlite.NewMap()
	sram.Set("attributes", yamlite.NewMap().
		Set("depth", yamlite.NewInt(a.SRAM)).
		Set("read_bandwidth", yamlite.NewFloat(a.Tech.BWSRAM)).
		Set("word-bits", yamlite.NewInt(int64(a.Tech.WordBits))).
		Set("write_bandwidth", yamlite.NewFloat(a.Tech.BWSRAM)))
	sram.Set("class", yamlite.NewScalar("SRAM"))
	sram.Set("name", yamlite.NewScalar("SRAM"))

	regfile := yamlite.NewMap()
	regfile.Set("attributes", yamlite.NewMap().
		Set("depth", yamlite.NewInt(a.Regs)).
		Set("read_bandwidth", yamlite.NewFloat(a.Tech.BWReg)).
		Set("word-bits", yamlite.NewInt(int64(a.Tech.WordBits))).
		Set("write_bandwidth", yamlite.NewFloat(a.Tech.BWReg)))
	regfile.Set("class", yamlite.NewScalar("regfile"))
	regfile.Set("name", yamlite.NewScalar("RegisterFile"))

	macc := yamlite.NewMap()
	macc.Set("attributes", yamlite.NewMap().
		Set("datawidth", yamlite.NewInt(int64(a.Tech.WordBits))))
	macc.Set("class", yamlite.NewScalar("intmac"))
	macc.Set("name", yamlite.NewScalar("MACC"))

	pe := yamlite.NewMap()
	pe.Set("name", yamlite.NewScalar(fmt.Sprintf("PE[0..%d]", a.PEs-1)))
	pe.Set("local", yamlite.NewSeq(regfile, macc))

	chip := yamlite.NewMap()
	chip.Set("name", yamlite.NewScalar("Chip"))
	chip.Set("local", yamlite.NewSeq(sram))
	chip.Set("subtree", yamlite.NewSeq(pe))

	system := yamlite.NewMap()
	system.Set("name", yamlite.NewScalar("system"))
	system.Set("local", yamlite.NewSeq(dram))
	system.Set("subtree", yamlite.NewSeq(chip))

	archNode := yamlite.NewMap()
	archNode.Set("version", yamlite.NewScalar("A.3"))
	archNode.Set("technology", yamlite.NewScalar("45nm"))
	archNode.Set("subtree", yamlite.NewSeq(system))

	root := yamlite.NewMap()
	root.Set("architecture", archNode)
	return root
}

// ParseArch extracts the architecture parameters (PE count, register
// depth, SRAM depth) from an architecture spec, filling energy/area
// constants from tech.
func ParseArch(root *yamlite.Node, tech arch.Tech) (arch.Arch, error) {
	a := arch.Arch{Name: "parsed", Tech: tech}
	an := root.Get("architecture")
	if an == nil {
		return a, fmt.Errorf("%w: missing architecture", ErrBadSpec)
	}
	var walk func(n *yamlite.Node) error
	walk = func(n *yamlite.Node) error {
		if name := n.Get("name"); name != nil {
			if s, err := name.Str(); err == nil {
				if cnt, ok := parsePEArray(s); ok {
					a.PEs = cnt
				}
			}
		}
		if local := n.Get("local"); local != nil && local.Kind == yamlite.Seq {
			for _, comp := range local.Items {
				class, _ := comp.Get("class").Str()
				depthNode := comp.Get("attributes").Get("depth")
				switch class {
				case "SRAM":
					if depthNode == nil {
						return fmt.Errorf("%w: SRAM without depth", ErrBadSpec)
					}
					d, err := depthNode.Int()
					if err != nil {
						return err
					}
					a.SRAM = d
				case "regfile":
					if depthNode == nil {
						return fmt.Errorf("%w: regfile without depth", ErrBadSpec)
					}
					d, err := depthNode.Int()
					if err != nil {
						return err
					}
					a.Regs = d
				}
			}
		}
		if sub := n.Get("subtree"); sub != nil && sub.Kind == yamlite.Seq {
			for _, child := range sub.Items {
				if err := walk(child); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(an); err != nil {
		return a, err
	}
	if err := a.Validate(); err != nil {
		return a, fmt.Errorf("%w: incomplete architecture: %v", ErrBadSpec, err)
	}
	return a, nil
}

// parsePEArray extracts the instance count from names like "PE[0..167]".
func parsePEArray(s string) (int64, bool) {
	if !strings.HasPrefix(s, "PE[") || !strings.HasSuffix(s, "]") {
		return 0, false
	}
	body := s[3 : len(s)-1]
	parts := strings.Split(body, "..")
	if len(parts) != 2 {
		return 0, false
	}
	lo, err1 := strconv.ParseInt(parts[0], 10, 64)
	hi, err2 := strconv.ParseInt(parts[1], 10, 64)
	if err1 != nil || err2 != nil || hi < lo {
		return 0, false
	}
	return hi - lo + 1, true
}

// ---------- Mapping specs (Fig. 3(d)) ----------

// targets of the standard nest levels, outermost first in the emitted
// document (Timeloop convention).
var levelTargets = map[int]struct {
	target string
	kind   string
}{
	dataflow.StandardLevelSRAM:    {"DRAM", "temporal"},
	dataflow.StandardLevelSpatial: {"SRAM", "spatial"},
	dataflow.StandardLevelL1:      {"SRAM", "temporal"},
	dataflow.StandardLevelReg:     {"RegisterFile", "temporal"},
}

// FromMapping renders a concrete mapping of a standard nest in the
// Fig. 3(d) style: one block per level with target, type, factors
// (trip counts, e.g. "K=4 C=1 H=2 W=2"), and permutation (Timeloop's
// innermost-to-outermost letter order). The nest of an architecture
// with intermediate buffers (arch.Arch.Mid) has no spec here: it is
// refused.
func FromMapping(n *dataflow.Nest, m *model.Mapping) (*yamlite.Node, error) {
	if len(n.Levels) != len(levelTargets) {
		return nil, fmt.Errorf("%w: a mapping spec has the standard nest's %d levels, this nest %d", ErrBadSpec, len(levelTargets), len(n.Levels))
	}
	if err := n.CheckTrips(m.Trips); err != nil {
		return nil, err
	}
	seq := yamlite.NewSeq()
	order := []int{
		dataflow.StandardLevelSRAM,
		dataflow.StandardLevelSpatial,
		dataflow.StandardLevelL1,
		dataflow.StandardLevelReg,
	}
	for _, li := range order {
		t := levelTargets[li]
		entry := yamlite.NewMap()
		entry.Set("target", yamlite.NewScalar(t.target))
		entry.Set("type", yamlite.NewScalar(t.kind))
		var facts []string
		for it, iter := range n.Prob.Iters {
			v := int64(1)
			if li < len(m.Trips) && it < len(m.Trips[li]) && m.Trips[li][it] > 0 {
				v = m.Trips[li][it]
			}
			facts = append(facts, fmt.Sprintf("%s=%d", strings.ToUpper(iter.Name), v))
		}
		entry.Set("factors", yamlite.NewScalar(strings.Join(facts, " ")))
		if t.kind == "temporal" && li < len(m.Perms) && len(m.Perms[li]) > 0 {
			// Timeloop permutations are innermost-to-outermost.
			perm := m.Perms[li]
			letters := make([]string, 0, len(perm))
			for i := len(perm) - 1; i >= 0; i-- {
				letters = append(letters, strings.ToUpper(n.Prob.Iters[perm[i]].Name))
			}
			entry.Set("permutation", yamlite.NewScalar(strings.Join(letters, " ")))
		}
		seq.Append(entry)
	}
	root := yamlite.NewMap()
	root.Set("mapping", seq)
	return root, nil
}

// ParseMapping reconstructs a Mapping for the given standard nest from a
// mapping spec.
func ParseMapping(root *yamlite.Node, n *dataflow.Nest) (*model.Mapping, error) {
	mp := root.Get("mapping")
	if mp == nil || mp.Kind != yamlite.Seq {
		return nil, fmt.Errorf("%w: missing mapping", ErrBadSpec)
	}
	m := &model.Mapping{
		Perms: make([][]int, len(n.Levels)),
		Trips: make([][]int64, len(n.Levels)),
	}
	for li := range n.Levels {
		m.Trips[li] = make([]int64, len(n.Prob.Iters))
		for i := range m.Trips[li] {
			m.Trips[li][i] = 1
		}
	}
	iterIdx := map[string]int{}
	for i, it := range n.Prob.Iters {
		iterIdx[strings.ToUpper(it.Name)] = i
	}
	// Inverse of levelTargets: (target, type) → level index.
	levelOf := map[string]int{}
	for li, t := range levelTargets {
		levelOf[t.target+"/"+t.kind] = li
	}
	for _, entry := range mp.Items {
		target, err := entry.Get("target").Str()
		if err != nil {
			return nil, fmt.Errorf("%w: entry without target", ErrBadSpec)
		}
		kind, err := entry.Get("type").Str()
		if err != nil {
			return nil, fmt.Errorf("%w: entry without type", ErrBadSpec)
		}
		li, ok := levelOf[target+"/"+kind]
		if !ok {
			return nil, fmt.Errorf("%w: unknown target/type %s/%s", ErrBadSpec, target, kind)
		}
		facts, err := entry.Get("factors").Str()
		if err != nil {
			return nil, fmt.Errorf("%w: entry without factors", ErrBadSpec)
		}
		for _, f := range strings.Fields(facts) {
			kv := strings.SplitN(f, "=", 2)
			if len(kv) != 2 {
				return nil, fmt.Errorf("%w: bad factor %q", ErrBadSpec, f)
			}
			it, ok := iterIdx[kv[0]]
			if !ok {
				return nil, fmt.Errorf("%w: unknown dimension %q", ErrBadSpec, kv[0])
			}
			v, err := strconv.ParseInt(kv[1], 10, 64)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("%w: bad factor value %q", ErrBadSpec, f)
			}
			m.Trips[li][it] = v
		}
		if permStr := entry.Get("permutation"); permStr != nil {
			s, err := permStr.Str()
			if err != nil {
				return nil, fmt.Errorf("%w: bad permutation", ErrBadSpec)
			}
			var perm []int
			// Spec order is innermost-to-outermost; internal order is
			// outer-to-inner.
			fields := strings.Fields(s)
			for i := len(fields) - 1; i >= 0; i-- {
				it, ok := iterIdx[fields[i]]
				if !ok {
					return nil, fmt.Errorf("%w: unknown dimension %q in permutation", ErrBadSpec, fields[i])
				}
				perm = append(perm, it)
			}
			// Keep only iterators active at this level, preserving order.
			var filtered []int
			active := map[int]bool{}
			for _, a := range n.Levels[li].Active {
				active[a] = true
			}
			for _, it := range perm {
				if active[it] {
					filtered = append(filtered, it)
				}
			}
			m.Perms[li] = filtered
		}
	}
	if err := n.CheckTrips(m.Trips); err != nil {
		return nil, err
	}
	return m, nil
}

// DesignBundle renders the full specification set of a design point —
// problem, architecture, mapping — as one document.
func DesignBundle(p *loopnest.Problem, a *arch.Arch, n *dataflow.Nest, m *model.Mapping) (string, error) {
	mapNode, err := FromMapping(n, m)
	if err != nil {
		return "", err
	}
	root := yamlite.NewMap()
	root.Set("problem", FromProblem(p).Get("problem"))
	root.Set("architecture", FromArch(a).Get("architecture"))
	root.Set("mapping", mapNode.Get("mapping"))
	return yamlite.Encode(root), nil
}

// SortedFactors is a helper that renders factors deterministically for
// tests and goldens.
func SortedFactors(facts string) string {
	fs := strings.Fields(facts)
	sort.Strings(fs)
	return strings.Join(fs, " ")
}

// ParseConstraints reads a Timeloop-style constraints document into
// mapper search constraints. The format mirrors mapping entries but is
// partial: factors pin only the dimensions listed, and permutation (when
// present) pins the level's loop order.
//
//	constraints:
//	  - target: SRAM
//	    type: spatial
//	    factors: K=8 C=8
//	  - target: DRAM
//	    type: temporal
//	    permutation: W H C K N
func ParseConstraints(root *yamlite.Node, n *dataflow.Nest) (*mapper.Constraints, error) {
	cn := root.Get("constraints")
	if cn == nil || cn.Kind != yamlite.Seq {
		return nil, fmt.Errorf("%w: missing constraints", ErrBadSpec)
	}
	iterIdx := map[string]int{}
	for i, it := range n.Prob.Iters {
		iterIdx[strings.ToUpper(it.Name)] = i
	}
	levelOf := map[string]int{}
	for li, t := range levelTargets {
		levelOf[t.target+"/"+t.kind] = li
	}
	out := &mapper.Constraints{
		FixedTrips: map[int]map[int]int64{},
		FixedPerms: map[int][]int{},
	}
	for _, entry := range cn.Items {
		target, err := entry.Get("target").Str()
		if err != nil {
			return nil, fmt.Errorf("%w: constraint without target", ErrBadSpec)
		}
		kind, err := entry.Get("type").Str()
		if err != nil {
			return nil, fmt.Errorf("%w: constraint without type", ErrBadSpec)
		}
		li, ok := levelOf[target+"/"+kind]
		if !ok {
			return nil, fmt.Errorf("%w: unknown constraint target/type %s/%s", ErrBadSpec, target, kind)
		}
		if facts := entry.Get("factors"); facts != nil {
			s, err := facts.Str()
			if err != nil {
				return nil, fmt.Errorf("%w: bad factors", ErrBadSpec)
			}
			for _, f := range strings.Fields(s) {
				kv := strings.SplitN(f, "=", 2)
				if len(kv) != 2 {
					return nil, fmt.Errorf("%w: bad factor %q", ErrBadSpec, f)
				}
				it, ok := iterIdx[kv[0]]
				if !ok {
					return nil, fmt.Errorf("%w: unknown dimension %q", ErrBadSpec, kv[0])
				}
				v, err := strconv.ParseInt(kv[1], 10, 64)
				if err != nil || v < 1 {
					return nil, fmt.Errorf("%w: bad factor value %q", ErrBadSpec, f)
				}
				if out.FixedTrips[li] == nil {
					out.FixedTrips[li] = map[int]int64{}
				}
				out.FixedTrips[li][it] = v
			}
		}
		if permNode := entry.Get("permutation"); permNode != nil {
			s, err := permNode.Str()
			if err != nil {
				return nil, fmt.Errorf("%w: bad permutation", ErrBadSpec)
			}
			fields := strings.Fields(s)
			var perm []int
			for i := len(fields) - 1; i >= 0; i-- { // innermost-first convention
				it, ok := iterIdx[fields[i]]
				if !ok {
					return nil, fmt.Errorf("%w: unknown dimension %q in permutation", ErrBadSpec, fields[i])
				}
				perm = append(perm, it)
			}
			var filtered []int
			active := map[int]bool{}
			for _, a := range n.Levels[li].Active {
				active[a] = true
			}
			for _, it := range perm {
				if active[it] {
					filtered = append(filtered, it)
				}
			}
			out.FixedPerms[li] = filtered
		}
	}
	return out, nil
}
