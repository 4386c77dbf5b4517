package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/compiled"
	"repro/internal/hmm"
	"repro/internal/pairwise"
	"repro/internal/query"
)

// saveMagicFamily tags the QRECF001 model-family container: a non-MVMM
// paper model (HMM, cluster, pairwise adjacency/co-occurrence) packaged with
// the dictionary it was trained against, loadable as a fleet arm. Layout:
// magic, then three of the 8-byte length-prefixed sections the MVMM
// container's dictionary is framed as — family identifier, dictionary,
// family payload.
const saveMagicFamily = "QRECF001"

// SaveFamily writes a QRECF001 container: family is one of the
// compiled.Family* identifiers, dict the training dictionary, payload the
// family model's serializer (its WriteTo). LoadFamily dispatches the payload
// decoder on the family string.
func SaveFamily(w io.Writer, family string, dict *query.Dict, payload io.WriterTo) error {
	switch family {
	case compiled.FamilyHMM, compiled.FamilyCluster, compiled.FamilyAdjacency, compiled.FamilyCooccurrence:
	default:
		return fmt.Errorf("core: unknown model family %q", family)
	}
	if _, err := io.WriteString(w, saveMagicFamily); err != nil {
		return err
	}
	if err := writeSection(w, "family", stringSection(family)); err != nil {
		return err
	}
	if err := writeSection(w, "dictionary", dict); err != nil {
		return err
	}
	return writeSection(w, "family payload", payload)
}

// stringSection adapts a string to the io.WriterTo writeSection expects.
type stringSection string

func (s stringSection) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, string(s))
	return int64(n), err
}

// LoadFamily restores a Recommender from a QRECF001 stream: the family
// payload is decoded by its package and lifted into the serving seam with
// FromPredictor. The returned arm reports the family identifier as its
// LoadInfo.Format.
func LoadFamily(rd io.Reader) (Recommender, error) {
	start := time.Now()
	magic := make([]byte, len(saveMagicFamily))
	if _, err := io.ReadFull(rd, magic); err != nil {
		return nil, fmt.Errorf("core: reading header: %w", err)
	}
	if string(magic) != saveMagicFamily {
		return nil, fmt.Errorf("core: unrecognised family file header %q", magic)
	}
	fs, n, err := section(rd, "family")
	if err != nil {
		return nil, err
	}
	var fbuf bytes.Buffer
	if _, err := io.CopyN(&fbuf, fs, int64(n)); err != nil {
		return nil, fmt.Errorf("core: reading family identifier: %w", err)
	}
	family := fbuf.String()
	ds, _, err := section(rd, "dictionary")
	if err != nil {
		return nil, err
	}
	dict, err := query.ReadDict(ds)
	if err != nil {
		return nil, fmt.Errorf("core: loading dictionary: %w", err)
	}
	ps, _, err := section(rd, "family payload")
	if err != nil {
		return nil, err
	}
	var p compiled.Predictor
	switch family {
	case compiled.FamilyHMM:
		p, err = hmm.Read(ps)
	case compiled.FamilyCluster:
		p, err = cluster.Read(ps)
	case compiled.FamilyAdjacency:
		p, err = pairwise.ReadAdjacency(ps)
	case compiled.FamilyCooccurrence:
		p, err = pairwise.ReadCooccurrence(ps)
	default:
		return nil, fmt.Errorf("core: unknown model family %q", family)
	}
	if err != nil {
		return nil, fmt.Errorf("core: loading %s model: %w", family, err)
	}
	info := LoadInfo{
		Mode:     LoadModeHeap,
		Version:  saveMagicFamily,
		Format:   family,
		Duration: time.Since(start),
	}
	return FromPredictor(dict, p, info), nil
}

// LoadAnyPath restores a serving model of either container format from disk:
// QRECF001 family containers through LoadFamily, MVMM containers through
// LoadPathWith (which mmaps the compiled blob).
// This is what cmd/serve's -model and -arms loading goes through, so every
// family is addressable by file path.
func LoadAnyPath(path string, opts LoadOptions) (Recommender, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	magic := make([]byte, len(saveMagicFamily))
	if _, err := io.ReadFull(f, magic); err != nil {
		f.Close()
		return nil, fmt.Errorf("core: reading header: %w", err)
	}
	if string(magic) == saveMagicFamily {
		defer f.Close()
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		return LoadFamily(f)
	}
	f.Close()
	return LoadPathWith(path, opts)
}
