package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// The fingerprint pass computes a canonical structural fingerprint for every
// node of the (already sliced and fused) plan, plus the cache key derived
// from it. Because every front end lowers through the same pipeline,
// identical pipelines built via GEL, the pyapi, or recipe replay fingerprint
// identically — and because fusion runs first, a pre-merged recipe step and
// the live chain it was sliced from normalize to the same fingerprint, so
// they share one sub-DAG cache entry.
//
// The fingerprint covers the skill (canonical name), the canonicalized
// arguments (sorted keys, JSON-encoded values), and the input fingerprints
// (external inputs hash by name). The cache key appends a content
// fingerprint per external input so a reloaded dataset under the same name
// can never serve a stale result. Volatile nodes — and their descendants —
// get no key at all.

type fingerprintPass struct {
	// lenient makes the pass tolerate unresolvable skills — the node (and
	// its descendants) get an empty fingerprint instead of an error — and
	// skips cache-key computation. The session-wide CSE pass runs it over
	// the whole session graph before slicing, where failed past requests
	// may have left nodes no strict pass could fingerprint and where
	// out-of-cone external inputs should not be content-hashed.
	lenient bool
}

// FingerprintPass annotates nodes with fingerprints, cache keys, and the
// skill-definition flags later passes rely on (requires Env.Lookup).
func FingerprintPass() Pass { return fingerprintPass{} }

// StructuralFingerprintPass is the lenient whole-graph variant: structural
// fingerprints only, no cache keys, unresolvable nodes skipped.
func StructuralFingerprintPass() Pass { return fingerprintPass{lenient: true} }

func (fingerprintPass) Name() string { return "fingerprint" }

func (fp fingerprintPass) Run(p *Plan, env *Env, t *PassTrace) error {
	if env.Lookup == nil {
		return nil
	}
	exts := map[int][]string{} // node ID → sorted external input names
	for _, n := range p.Nodes {
		def, err := env.Lookup(n.Skill)
		if err != nil {
			if fp.lenient {
				n.Fingerprint, n.Key = "", ""
				continue
			}
			return fmt.Errorf("plan: node %d: %w", n.ID, err)
		}
		n.Mergeable = def.MergeSQL != nil
		n.Invalidates = def.Invalidates
		n.Volatile = def.Volatile

		// A volatile skill that can content-hash its out-of-DAG source (a
		// registered file, say) becomes cacheable: the hash below joins the
		// fingerprint, so changed content yields a fresh key, never a stale
		// hit. Without the hash the node — and every descendant — stays
		// uncacheable.
		var srcFP uint64
		n.Source = false
		if n.Volatile && env.SourceFingerprint != nil {
			if fp, ok := env.SourceFingerprint(n.Skill, n.Args); ok {
				srcFP, n.Source = fp, true
				n.Volatile = false
			}
		}

		h := sha256.New()
		fmt.Fprintf(h, "skill:%s\n", strings.ToLower(def.Name))
		if n.Source {
			fmt.Fprintf(h, "src:%016x\n", srcFP)
		}
		keys := make([]string, 0, len(n.Args))
		for k := range n.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v, err := json.Marshal(n.Args[k])
			if err != nil {
				return fmt.Errorf("plan: node %d: arg %q: %w", n.ID, k, err)
			}
			fmt.Fprintf(h, "arg:%s=%s\n", k, v)
		}
		extSet := map[string]bool{}
		poisoned := false
		for _, in := range n.Inputs {
			if in.Node == External {
				fmt.Fprintf(h, "ext:%s\n", in.Name)
				extSet[in.Name] = true
				continue
			}
			parent := p.Node(in.Node)
			if parent == nil || (fp.lenient && parent.Fingerprint == "") {
				// An unfingerprintable ancestor poisons the whole subtree:
				// hashing an empty parent fingerprint would collide
				// structurally different plans.
				poisoned = true
				break
			}
			fmt.Fprintf(h, "in:%s\n", parent.Fingerprint)
			if parent.Volatile {
				n.Volatile = true
			}
			for _, name := range exts[parent.ID] {
				extSet[name] = true
			}
		}
		if poisoned {
			n.Fingerprint, n.Key = "", ""
			continue
		}
		n.Fingerprint = hex.EncodeToString(h.Sum(nil))

		names := make([]string, 0, len(extSet))
		for name := range extSet {
			names = append(names, name)
		}
		sort.Strings(names)
		exts[n.ID] = names

		n.Key = ""
		if !fp.lenient && !n.Volatile && env.ExtFingerprint != nil {
			var b strings.Builder
			b.WriteString(n.Fingerprint)
			ok := true
			for _, name := range names {
				fp, found := env.ExtFingerprint(name)
				if !found {
					// Missing input: execution will report the real error;
					// the node simply cannot be cached.
					ok = false
					break
				}
				fmt.Fprintf(&b, "|%s=%016x", name, fp)
			}
			if ok {
				n.Key = b.String()
			}
		}
	}
	if !fp.lenient {
		p.Fingerprints = p.Fingerprints[:0]
		for _, n := range p.Nodes {
			p.Fingerprints = append(p.Fingerprints, n.Fingerprint)
		}
	}
	t.Fired = true
	return nil
}
