package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"
)

// TestSigmaBitsPinned runs three generated logs through the whole log →
// model path (encode, read, segment, aggregate, reduce, σ's Newton
// iteration) and holds every learned σ to hex constants captured with
// Eq. (4) evaluated directly, once per (sequence, component). A σ that
// moves by one ulp moves every served weight. It also holds the sha256 of
// each corpus's saved model file, so a byte moved anywhere between the log
// and the file — PST growth, Compile's layout, the CPS5 encoder — fails
// here too.
func TestSigmaBitsPinned(t *testing.T) {
	cases := []struct {
		seed      int64
		sessions  int
		threshold int
		want      []string
		modelSHA  string
	}{
		{1, 3000, 2, []string{
			"0x1.53bcb41773091p+01",
			"0x1.57e815801306bp+00",
			"0x1.57e815801306cp+00",
			"0x1.57e815801306bp+00",
			"0x1.57e815801306bp+00",
			"0x1.57e815801306bp+00",
			"0x1.57e815801306ap+00",
			"0x1.57e815801306ap+00",
			"0x1.57e815801306bp+00",
			"0x1.57e815801306cp+00",
			"0x1.57e815801306bp+00",
		}, "78d2e2c435a7b7573b370fb39bd6bff2d2ad8a966705d5cace1028dc78cfd374"},
		{2, 10000, 5, []string{
			"0x1.4ad22cf41be39p+01",
			"0x1.3f86554d4aed4p+00",
			"0x1.40d7556808ac5p+00",
			"0x1.40d7556808ac4p+00",
			"0x1.40d7556808ac3p+00",
			"0x1.3f855bfe0e967p+00",
			"0x1.3f855bfe0e968p+00",
			"0x1.3f855bfe0e969p+00",
			"0x1.3f855bfe0e968p+00",
			"0x1.3f855bfe0e968p+00",
			"0x1.3f855bfe0e968p+00",
		}, "05a0458a2517ef4a34a965edc85f5a120b06c20747896b15efea1e3582291f68"},
		{3, 20000, 3, []string{
			"0x1.5e40922c8c564p+01",
			"0x1.28635737a01a2p+00",
			"0x1.25aa0cbf0c13dp+00",
			"0x1.25aa0cbf0c13dp+00",
			"0x1.25413d594d6c1p+00",
			"0x1.23d6198df7f7dp+00",
			"0x1.23d6198df7f7ep+00",
			"0x1.23719e152c35ep+00",
			"0x1.2424ed12bf268p+00",
			"0x1.2424ed12bf267p+00",
			"0x1.2331c60c4bd5bp+00",
		}, "6ec128e738af19274cdd4a8fe07ccdbf15bf761126b358915164afec92faff0e"},
	}
	for _, c := range cases {
		eng := trainGenerated(t, c.seed, c.sessions, c.threshold)
		got := eng.Model().Sigmas()
		gotHex := make([]string, len(got))
		for i, s := range got {
			gotHex[i] = strconv.FormatFloat(s, 'x', -1, 64)
		}
		if len(gotHex) != len(c.want) {
			t.Fatalf("seed %d: %d sigmas, want %d", c.seed, len(gotHex), len(c.want))
		}
		for i := range gotHex {
			if gotHex[i] != c.want[i] {
				t.Errorf("seed %d: sigma[%d] = %s, want %s", c.seed, i, gotHex[i], c.want[i])
			}
		}
		var model bytes.Buffer
		if err := eng.Save(&model); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(model.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.modelSHA {
			t.Errorf("seed %d: model sha256 = %s, want %s", c.seed, got, c.modelSHA)
		}
	}
}
