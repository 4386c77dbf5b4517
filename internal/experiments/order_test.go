package experiments

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/compiled"
	"repro/internal/markov"
	"repro/internal/query"
)

// TestTrainingOrderInvariance: the MVMM is a function of the aggregated
// sessions as a set. Trained on the reduced and on the full training window,
// as built and in three seeded shuffles of each, it encodes to the same CPS5
// blob and the same MVMM.WriteTo stream every time.
func TestTrainingOrderInvariance(t *testing.T) {
	c, _ := setup(t)
	encode := func(sessions []query.Session) (blob, stream []byte) {
		t.Helper()
		m := markov.NewMVMM(sessions, markov.DefaultEpsilons(), c.Vocab(), markov.MVMMOptions{})
		comp, err := compiled.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		if blob, err = comp.AppendFlat5(nil); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return blob, buf.Bytes()
	}
	for _, window := range []struct {
		name     string
		sessions []query.Session
	}{{"reduced", c.TrainAgg}, {"full", c.TrainAggFull}} {
		wantBlob, wantStream := encode(window.sessions)
		t.Logf("%s: %d sessions, CPS5 %d B, WriteTo %d B", window.name, len(window.sessions), len(wantBlob), len(wantStream))
		for seed := int64(1); seed <= 3; seed++ {
			shuffled := slices.Clone(window.sessions)
			rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			blob, stream := encode(shuffled)
			if !bytes.Equal(blob, wantBlob) {
				t.Errorf("%s, shuffle %d: CPS5 blob differs from the unshuffled one (%d vs %d B)", window.name, seed, len(blob), len(wantBlob))
			}
			if !bytes.Equal(stream, wantStream) {
				t.Errorf("%s, shuffle %d: WriteTo output differs from the unshuffled one (%d vs %d B)", window.name, seed, len(stream), len(wantStream))
			}
		}
	}
}
