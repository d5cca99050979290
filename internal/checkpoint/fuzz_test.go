package checkpoint

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzFingerprint is the campaign fingerprint every fuzzed load asks for.
const fuzzFingerprint = "fuzz-campaign"

// FuzzCheckpointLoad feeds arbitrary bytes to Open as a checkpoint file to
// resume. Open never panics and returns a File or an error, never both or
// neither; a body that does not parse as a checkpoint is ErrCorrupt, and
// every rejection is ErrCorrupt, ErrMismatch or an unsupported version. An
// accepted file survives a Flush and a re-Open unchanged: the same number
// of units, and the same Lookup result for each.
func FuzzCheckpointLoad(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.json")
	ck, err := Open(path, fuzzFingerprint, 1, false)
	if err != nil {
		f.Fatal(err)
	}
	if err := ck.Record("rf/ic0/0-63", map[string]any{"misses": 9, "seeds": []int{3, 4}}); err != nil {
		f.Fatal(err)
	}
	if err := ck.Record("sa/ec1/64-127", []float64{0.5, -2, 1e300}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{0, 1, 2, len(valid) / 3, len(valid) / 2, len(valid) - 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Add([]byte(`{"version":2,"fingerprint":"other","checksum":"","units":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := Open(path, fuzzFingerprint, 1, true)
		if (ck == nil) == (err == nil) {
			t.Fatalf("Open returned file %v and error %v", ck, err)
		}
		var st state
		parsed := json.Unmarshal(data, &st) == nil
		if err != nil {
			if !parsed && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unparseable body rejected without ErrCorrupt: %v", err)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrMismatch) && (!parsed || st.Version == Version) {
				t.Fatalf("rejection is neither ErrCorrupt, ErrMismatch nor a version mismatch: %v", err)
			}
			return
		}
		if err := ck.Flush(); err != nil {
			t.Fatalf("flushing an accepted checkpoint: %v", err)
		}
		again, err := Open(path, fuzzFingerprint, 1, true)
		if err != nil {
			t.Fatalf("re-opening a flushed checkpoint: %v", err)
		}
		if ck.Len() != again.Len() {
			t.Fatalf("re-opened checkpoint holds %d units, want %d", again.Len(), ck.Len())
		}
		for key := range ck.st.Units {
			var want, got any
			okW, errW := ck.Lookup(key, &want)
			okG, errG := again.Lookup(key, &got)
			if okW != okG || (errW == nil) != (errG == nil) || !reflect.DeepEqual(want, got) {
				t.Fatalf("unit %q: Lookup (%v, %v, %v) before the round trip, (%v, %v, %v) after", key, okW, want, errW, okG, got, errG)
			}
		}
	})
}
