package conformance

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// TestSharedInvocationsStayImmutable runs the corpus through two sessions on
// two platforms at once (under -race), each case's program as one request.
// Identical steps share one hash-consed invocation across every graph, so
// afterwards each session's node i must still encode exactly as case step i
// does: no pass, skill or front end wrote into a shared invocation.
func TestSharedInvocationsStayImmutable(t *testing.T) {
	shared := 0
	for _, c := range loadCorpus(t) {
		envs := make([]*caseEnv, 2)
		for i := range envs {
			env, err := newEnv(c)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			envs[i] = env
		}
		invs := invsOf(c.Steps)
		want := make([][]byte, len(invs))
		for i, inv := range invs {
			b, err := json.Marshal(inv)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = b
		}
		var wg sync.WaitGroup
		for _, env := range envs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, _, _ = env.s.RequestProgramCtx(context.Background(), User, env.opts, invs...)
			}()
		}
		wg.Wait()
		for i := range invs {
			var nodes [2]any
			for e, env := range envs {
				n, err := env.s.Graph().Node(env.s.Graph().Order()[i])
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(n.Inv)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want[i]) {
					t.Errorf("%s step %d: node encodes %s, the case's step %s", c.Name, i, got, want[i])
				}
				nodes[e] = n.Inv
			}
			if nodes[0] == nodes[1] {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Error("no step was shared between the two sessions")
	}
	t.Logf("%d steps shared one invocation across the two sessions", shared)
}
