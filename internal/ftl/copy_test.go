package ftl

import (
	"bytes"
	"testing"
)

// A host write is copied once, on entry, and that copy is what flash
// keeps: the host scribbles over its buffer as soon as the write call
// returns, and a later read (from flash, after a flush) still returns
// what was written. Each path that hands host bytes toward the chip has
// its own entry copy — the write buffer's, an unbuffered write's, a
// nameless write's and the hybrid FTL's — and removing any one of them
// fails its case here, because the chip keeps the buffer it is given.
func TestHostWriteCopiedOnEntry(t *testing.T) {
	buffered := writeThroughConfig()
	buffered.BufferPages = 16
	cases := []struct {
		name  string
		write func(t *testing.T, buf []byte) (read func() []byte)
	}{
		{"buffered PageFTL", func(t *testing.T, buf []byte) func() []byte {
			eng, f := newTinyFTL(t, buffered)
			f.WriteLPN(3, buf, func(err error) {
				if err != nil {
					t.Errorf("write: %v", err)
				}
			})
			return func() []byte {
				flushed := false
				f.Flush(func() { flushed = true })
				eng.Run()
				if !flushed {
					t.Fatal("flush never completed")
				}
				return mustRead(t, eng, f, 3)
			}
		}},
		{"unbuffered PageFTL", func(t *testing.T, buf []byte) func() []byte {
			eng, f := newTinyFTL(t, writeThroughConfig())
			f.WriteLPN(3, buf, func(err error) {
				if err != nil {
					t.Errorf("write: %v", err)
				}
			})
			return func() []byte {
				eng.Run()
				return mustRead(t, eng, f, 3)
			}
		}},
		{"WriteNameless", func(t *testing.T, buf []byte) func() []byte {
			eng, f := newTinyFTL(t, writeThroughConfig())
			ppa := InvalidPPA
			f.WriteNameless(buf, func(p PPA, err error) {
				if err != nil {
					t.Errorf("nameless write: %v", err)
				}
				ppa = p
			})
			return func() []byte {
				eng.Run()
				var got []byte
				f.ReadPhys(ppa, func(d []byte, err error) {
					if err != nil {
						t.Errorf("ReadPhys: %v", err)
					}
					got = d
				})
				eng.Run()
				return got
			}
		}},
		{"HybridFTL", func(t *testing.T, buf []byte) func() []byte {
			eng, arr := legacyArray(t, 1, 2)
			f, err := NewHybridFTL(arr, 0.2, 2)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteLPN(3, buf, func(err error) {
				if err != nil {
					t.Errorf("write: %v", err)
				}
			})
			return func() []byte {
				eng.Run()
				return ftlRead(t, eng, f, 3)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := pageData(256, 0x5A)
			buf := bytes.Clone(want)
			read := c.write(t, buf)
			for i := range buf {
				buf[i] = 0xFF // the host reuses its buffer at once
			}
			if got := read(); !bytes.Equal(got, want) {
				t.Fatalf("read back %d bytes starting %#x, want the written 0x5a page: the write kept the host's buffer", len(got), got[:min(1, len(got))])
			}
		})
	}
}
