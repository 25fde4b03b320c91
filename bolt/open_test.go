package bolt_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"

	"gobolt/bolt"
	"gobolt/internal/elfx"
)

// TestInputFingerprint: whichever way a session is opened, the report
// fingerprints the input file's bytes. OpenReader and Open hash the bytes
// they read (sized up front from Len or Seek, or grown by io.ReadAll when
// the reader offers neither), OpenELF serializes the image; for an
// elfx-written input the two agree because parse → serialize reproduces
// the file, which is also why the value equals what sessions reported
// when every path re-serialized.
func TestInputFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and bolts the seven golden inputs; skipped in -short")
	}
	cx := context.Background()
	fingerprint := func(t *testing.T, sess *bolt.Session, err error) (string, int) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Optimize(cx)
		if err != nil {
			t.Fatal(err)
		}
		return rep.InputSHA256, rep.InputSize
	}
	for _, g := range goldenOutputs {
		t.Run(g.name, func(t *testing.T) {
			f := buildSorted(t, g.spec(), g.cfg)
			data, err := f.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			want := hex.EncodeToString(sum[:])

			reread, err := elfx.Read(data)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := reread.Bytes(); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("parse -> serialize does not reproduce the input (err %v)", err)
			}

			type opener struct {
				name string
				open func() (*bolt.Session, error)
			}
			opens := []opener{
				{"OpenELF", func() (*bolt.Session, error) { return bolt.OpenELF(f) }},
				{"OpenReader(Len)", func() (*bolt.Session, error) { return bolt.OpenReader(bytes.NewReader(data)) }},
			}
			if g.name == "quickstart" { // the other reader shapes do not depend on the input
				path := filepath.Join(t.TempDir(), "in.elf")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				file, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer file.Close()
				opens = append(opens,
					opener{"OpenReader(Seek)", func() (*bolt.Session, error) { return bolt.OpenReader(file) }},
					opener{"OpenReader(no size)", func() (*bolt.Session, error) {
						return bolt.OpenReader(io.MultiReader(bytes.NewReader(data)))
					}},
					opener{"Open", func() (*bolt.Session, error) { return bolt.Open(path) }})
			}
			for _, o := range opens {
				sess, err := o.open()
				if sha, size := fingerprint(t, sess, err); sha != want || size != len(data) {
					t.Errorf("%s: fingerprint %s/%d, want %s/%d", o.name, sha, size, want, len(data))
				}
			}
		})
	}
}
