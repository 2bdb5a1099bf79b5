package pipeline

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDiskRows holds the issue-row decoder to encoding/json: for any input
// it accepts exactly what encoding/json accepts into a [][]int, decodes it
// to the same rows (nil and empty rows told apart), and the decoded rows
// marshal back to the same bytes, so entries written by either decoder's
// rows are byte-identical. The seeds are the real rows of the disk-v1
// fixtures plus the edges of the grammar.
func FuzzDiskRows(f *testing.F) {
	err := filepath.WalkDir(filepath.Join("testdata", "disk-v1"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var p struct {
			List, Sync struct {
				Rows json.RawMessage `json:"rows"`
			}
		}
		if err := json.Unmarshal(data[diskHeaderSize:], &p); err != nil {
			return err
		}
		f.Add([]byte(p.List.Rows))
		f.Add([]byte(p.Sync.Rows))
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		"null", " null ", "[]", "[null]", "[[]]", "[[],null,[0]]", "[[null,1]]",
		" \t\n[ [ 1 , 2 ] ,\r[ -3 ] ] ", "[[-0]]", "[[-7,12]]",
		"[[1.5]]", "[[1e3]]", "[[1E+3]]", "[[-]]", "[[01]]", "[[1,]]", "[[,1]]", "[1]",
		"[[9223372036854775807]]", "[[9223372036854775808]]",
		"[[-9223372036854775808]]", "[[-9223372036854775809]]", "[[99999999999999999999]]",
		`[["1"]]`, "[[true]]", "[{}]", "{}", "", "[[1]] x", "nul", "[[[1]]]", "[[1]",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want [][]int
		wantErr := json.Unmarshal(data, &want)
		var got diskRows
		gotErr := got.UnmarshalJSON(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decoder err = %v, encoding/json err = %v", data, gotErr, wantErr)
		}
		// Through encoding/json, as LoadDisk decodes a payload.
		var via diskRows
		viaErr := json.Unmarshal(data, &via)
		if (viaErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: err through encoding/json = %v, want %v", data, viaErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual([][]int(got), want) || !reflect.DeepEqual([][]int(via), want) {
			t.Fatalf("%q: decoded %#v and %#v, encoding/json decoded %#v", data, got, via, want)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%q: rows marshal to %s, encoding/json's to %s", data, gotJSON, wantJSON)
		}
	})
}
