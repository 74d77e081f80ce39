package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// jsonKeys collects every object key in a JSON document, sorted and distinct.
func jsonKeys(t *testing.T, doc []byte) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				seen[k] = true
				walk(child)
			}
		case []any:
			for _, child := range v {
				walk(child)
			}
		}
	}
	walk(v)
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestCommittedBenchFilesMatchTheirTypes holds the committed BENCH_scale.json
// and BENCH_obs.json to the result types itcbench emits them from, so the
// committed trajectories cannot drift from what the tool produces: each file
// decodes with no unknown field, and re-encoding what was decoded yields
// exactly the file's key set (a field the type gained since shows up as a key
// the file lacks). Values are machine-dependent and deliberately not compared.
func TestCommittedBenchFilesMatchTheirTypes(t *testing.T) {
	for _, tc := range []struct {
		file string
		into any
	}{
		{"../../BENCH_scale.json", &ScaleBench{}},
		{"../../BENCH_obs.json", &ObsBench{}},
	} {
		committed, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(committed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(tc.into); err != nil {
			t.Fatalf("%s does not decode into %T: %v", tc.file, tc.into, err)
		}
		emitted, err := json.Marshal(tc.into)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := jsonKeys(t, emitted), jsonKeys(t, committed); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %T emits keys\n%v\nthe committed file has\n%v", tc.file, tc.into, got, want)
		}
	}
}
