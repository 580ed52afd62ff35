package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// foldProfile decodes a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and returns the sample count per layer of each
// sample's leaf function: its flat samples, folded by package. Only the
// fields folding needs are decoded; the profile format is documented in
// github.com/google/pprof/proto/profile.proto.
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName  = map[uint64]int64{}  // function id -> string table index
		strs      []string
		decodeErr error
	)
	err = eachField(raw, func(field int, v uint64, b []byte) {
		switch field {
		case 2: // Profile.sample
			var s sample
			locs, vals := 0, 0
			decodeErr = errors.Join(decodeErr, eachField(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1: // Sample.location_id, leaf first
					for _, id := range varints(v, b) {
						if locs == 0 {
							s.leaf = id
						}
						locs++
					}
				case 2: // Sample.value; [0] is the sample count
					for _, x := range varints(v, b) {
						if vals == 0 {
							s.count = int64(x)
						}
						vals++
					}
				}
			}))
			samples = append(samples, s)
		case 4: // Profile.location
			var id, fn uint64
			lines := 0
			decodeErr = errors.Join(decodeErr, eachField(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1: // Location.id
					id = v
				case 4: // Location.line; inlined frames, innermost first
					if lines == 0 {
						decodeErr = errors.Join(decodeErr, eachField(b, func(f int, v uint64, _ []byte) {
							if f == 1 { // Line.function_id
								fn = v
							}
						}))
					}
					lines++
				}
			}))
			locFunc[id] = fn
		case 5: // Profile.function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, eachField(b, func(f int, v uint64, _ []byte) {
				switch f {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := ""
		if i, ok := funcName[locFunc[s.leaf]]; ok && i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[layerOf(name)] += s.count
	}
	return out, nil
}

// layerOf maps a profiled function name, such as
// "ppt/internal/netsim.(*Port).Enqueue", to the benchmark layer its
// package belongs to.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other packages' paths
	}
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "ppt/internal/bufaware":
		return "workload"
	case strings.HasPrefix(pkg, "ppt/internal/transport/"):
		return "transport." + strings.TrimPrefix(pkg, "ppt/internal/transport/")
	case strings.HasPrefix(pkg, "ppt/internal/"):
		return strings.TrimPrefix(pkg, "ppt/internal/")
	}
	return "other"
}

// eachField calls fn for every field of one protobuf message: v is the
// value of a varint or fixed-width field, b the bytes of a
// length-delimited one.
func eachField(msg []byte, fn func(field int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			fn(field, v, nil)
		case 1: // fixed64
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			fn(field, binary.LittleEndian.Uint64(msg), nil)
			msg = msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			fn(field, 0, msg[n:n+int(l)])
			msg = msg[n+int(l):]
		case 5: // fixed32
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			fn(field, uint64(binary.LittleEndian.Uint32(msg)), nil)
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// varints returns the values of a repeated integer field occurrence:
// one value when it was encoded unpacked (b == nil), every varint in b
// when packed.
func varints(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
