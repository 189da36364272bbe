package sharedfs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"
)

var testFrame = Frame{Magic: "TST1", Version: 3}

// TestFrameLayout pins the sealed bytes to the documented layout:
// magic | u32 version | u32 len(key) | key | payload | sha256.
func TestFrameLayout(t *testing.T) {
	var want []byte
	want = append(want, "TST1"...)
	want = binary.LittleEndian.AppendUint32(want, 3)
	want = binary.LittleEndian.AppendUint32(want, 3)
	want = append(want, "key"...)
	want = append(want, "payload"...)
	sum := sha256.Sum256(want)
	want = append(want, sum[:]...)
	got := testFrame.Seal("key", []byte("payload"))
	if !bytes.Equal(got, want) {
		t.Fatalf("Seal = %x, want %x", got, want)
	}
	key, payload, err := testFrame.Open(got)
	if err != nil || key != "key" || string(payload) != "payload" {
		t.Fatalf("Open = %q, %q, %v", key, payload, err)
	}
	if payload, err := testFrame.OpenKey("key", got); err != nil || string(payload) != "payload" {
		t.Fatalf("OpenKey = %q, %v", payload, err)
	}
	// An empty payload is a valid artifact too.
	if _, payload, err := testFrame.Open(testFrame.Seal("", nil)); err != nil || len(payload) != 0 {
		t.Fatalf("empty artifact: %q, %v", payload, err)
	}
}

// TestFrameRejectsEveryDefect proves Open refuses every damaged,
// foreign or misfiled artifact, naming the defect.
func TestFrameRejectsEveryDefect(t *testing.T) {
	good := testFrame.Seal("key", []byte("payload"))
	// restamp rewrites the body and re-seals the checksum, so only the
	// check under test can reject it.
	restamp := func(mut func(body []byte) []byte) []byte {
		body := mut(append([]byte{}, good[:len(good)-sha256.Size]...))
		sum := sha256.Sum256(body)
		return append(body, sum[:]...)
	}
	flip := append([]byte{}, good...)
	flip[14] ^= 0x01
	cases := map[string]struct {
		data []byte
		want string
	}{
		"empty":     {nil, "truncated"},
		"truncated": {good[:len(good)-1], "checksum"},
		"bit flip":  {flip, "checksum"},
		"trailing":  {append(append([]byte{}, good...), 0), "checksum"},
		"magic":     {restamp(func(b []byte) []byte { b[0] = 'X'; return b }), "magic"},
		"version":   {restamp(func(b []byte) []byte { b[4]++; return b }), "version"},
		"key past end": {restamp(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 100)
			return b
		}), "key length"},
		"key over cap": {testFrame.Seal(strings.Repeat("k", maxKeyLen+1), nil), "key length"},
	}
	for name, c := range cases {
		if _, _, err := testFrame.Open(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Open error = %v, want one naming %q", name, err, c.want)
		}
	}
	if _, err := testFrame.OpenKey("other", good); err == nil || !strings.Contains(err.Error(), "misfiled") {
		t.Errorf("misfiled artifact: OpenKey error = %v", err)
	}
	if _, _, err := (Frame{Magic: "TST1", Version: 4}).Open(good); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("older version: Open error = %v", err)
	}
}
