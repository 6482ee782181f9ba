package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestAppendDecodeRoundTrip(t *testing.T) {
	whole := Append(nil, []byte("key|slug|result"))
	if parts := Append(nil, []byte("key|"), nil, []byte("slug|"), []byte("result")); !bytes.Equal(parts, whole) {
		t.Fatalf("a payload in parts framed as %q, whole as %q", parts, whole)
	}
	data := Append(whole, nil) // a second, empty frame
	payload, size, err := Decode(data)
	if err != nil || string(payload) != "key|slug|result" || size != HeaderSize+15 {
		t.Fatalf("Decode = (%q, %d, %v)", payload, size, err)
	}
	if payload, size, err = Decode(data[size:]); err != nil || len(payload) != 0 || size != HeaderSize {
		t.Fatalf("empty frame: Decode = (%q, %d, %v)", payload, size, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	good := Append(nil, []byte("payload"))
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	huge := bytes.Clone(good)
	binary.LittleEndian.PutUint32(huge, MaxPayload+1)
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"short header", good[:HeaderSize-1], ErrShort},
		{"short payload", good[:len(good)-1], ErrShort},
		{"bad checksum", flipped, ErrChecksum},
		{"length over the limit", huge, ErrLength},
	} {
		_, size, err := Decode(tc.data)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if tc.want == ErrChecksum && size != len(good) {
			t.Errorf("%s: size = %d, want the frame's %d", tc.name, size, len(good))
		}
	}
}
