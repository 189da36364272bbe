package sharedfs

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// maxKeyLen caps the key an artifact embeds, checked before the key is
// sliced out, so a corrupt length field costs an error, not a panic.
const maxKeyLen = 1 << 12

// Frame is the integrity frame every store artifact is sealed in (see
// the package comment for the layout). Magic names the codec and
// Version its payload format; the codec encodes only the payload.
type Frame struct {
	Magic   string
	Version uint32
}

// Seal frames payload as key's artifact. It is a pure function of its
// inputs, so every writer of a key produces identical bytes. A key over
// the length cap seals into an artifact Open rejects: always a miss.
func (f Frame) Seal(key string, payload []byte) []byte {
	buf := make([]byte, 0, len(f.Magic)+8+len(key)+len(payload)+sha256.Size)
	buf = append(buf, f.Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, f.Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(append(buf, key...), payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// Open verifies a sealed artifact — checksum first, then magic, version
// and key length — and returns the key it was sealed under and its
// payload (a subslice of data). Any error means the bytes cannot be
// trusted: the caller treats the artifact as a miss.
func (f Frame) Open(data []byte) (key string, payload []byte, err error) {
	head := len(f.Magic) + 8
	if len(data) < head+sha256.Size {
		return "", nil, fmt.Errorf("%s artifact truncated (%d bytes)", f.Magic, len(data))
	}
	body := data[:len(data)-sha256.Size]
	if sha256.Sum256(body) != [sha256.Size]byte(data[len(body):]) {
		return "", nil, fmt.Errorf("%s artifact checksum mismatch", f.Magic)
	}
	if string(body[:len(f.Magic)]) != f.Magic {
		return "", nil, fmt.Errorf("bad artifact magic, want %s", f.Magic)
	}
	if v := binary.LittleEndian.Uint32(body[len(f.Magic):]); v != f.Version {
		return "", nil, fmt.Errorf("%s artifact version %d, want %d", f.Magic, v, f.Version)
	}
	n := binary.LittleEndian.Uint32(body[len(f.Magic)+4:])
	if n > maxKeyLen || int(n) > len(body)-head {
		return "", nil, fmt.Errorf("%s artifact has implausible key length %d", f.Magic, n)
	}
	return string(body[head : head+int(n)]), body[head+int(n):], nil
}

// OpenKey is Open for the artifact filed under key: an artifact sealed
// under any other key is misfiled, so it cannot load as something it
// is not.
func (f Frame) OpenKey(key string, data []byte) ([]byte, error) {
	got, payload, err := f.Open(data)
	if err == nil && got != key {
		return nil, fmt.Errorf("%s artifact is keyed %s (misfiled)", f.Magic, got)
	}
	return payload, err
}
