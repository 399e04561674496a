package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"traceback/internal/snap"
	"traceback/internal/trace"
)

func write(dir, name string, data []byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		panic(err)
	}
	fmt.Println(filepath.Join(dir, name))
}

func wordsToBytes(ws []uint32) []byte {
	out := make([]byte, len(ws)*4)
	for i, w := range ws {
		binary.LittleEndian.PutUint32(out[i*4:], w)
	}
	return out
}

func main() {
	root := os.Args[1]

	tdir := filepath.Join(root, "internal/trace/testdata/fuzz/FuzzTraceRecordDecode")
	var ws []uint32
	ws = append(ws, trace.DAGWord(7, 0b1011))
	ws = trace.AppendTimestamp(ws, 0x1122334455667788)
	ws = append(ws, trace.DAGWord(9, 0))
	ws = trace.AppendSync(ws, trace.Sync{Point: trace.SyncCallSend, RuntimeID: 0xdead, LogicalThread: 3, Seq: 1, TS: 42})
	ws = trace.AppendThreadStart(ws, 1, 100)
	write(tdir, "wellformed-stream", wordsToBytes(ws))
	write(tdir, "torn-stream", wordsToBytes(ws[3:]))
	write(tdir, "sentinels", wordsToBytes([]uint32{trace.Invalid, trace.Sentinel, trace.DAGWord(1, 1), trace.Sentinel}))
	write(tdir, "kind-zero-trailer", wordsToBytes([]uint32{0x00020000, 0x7F020000}))
	write(tdir, "kind-7f-trailer", wordsToBytes([]uint32{0x7F020000, 0x7F02007F}))
	var exc []uint32
	exc = trace.AppendException(exc, trace.Exception{Code: 8, Addr: 0x401000, TS: 999})
	write(tdir, "exception", wordsToBytes(exc))
	write(tdir, "unaligned", []byte{0x7f, 0x02, 0x00})
	write(tdir, "bad-dag", wordsToBytes([]uint32{trace.DAGWord(trace.BadDAGID, 0x3FF)}))

	sdir := filepath.Join(root, "internal/snap/testdata/fuzz/FuzzSnapReader")
	valid := &snap.Snap{
		Host: "h", Process: "p", PID: 7, RuntimeID: 0xabcdef, Reason: "api",
		Time: 123456,
		Modules: []snap.ModuleInfo{{
			Name: "m", Checksum: "00ff", ActualDAGBase: 1, DAGCount: 2,
			CodeBase: 0x1000, CodeLen: 64, DataBase: 0x2000, DataDump: []byte{1, 2, 3},
		}},
		Buffers: []snap.BufferDump{{
			Kind: snap.BufMain, OwnerTID: 1, LastPtr: 3, LastKnown: true,
			SubWords: 4, Raw: []byte{0xAA, 0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0xFF},
		}},
		Partners: []uint64{9},
	}
	var plain bytes.Buffer
	if err := valid.Save(&plain); err != nil {
		panic(err)
	}
	write(sdir, "valid-json", plain.Bytes())
	var zipped bytes.Buffer
	if err := valid.SaveCompressed(&zipped); err != nil {
		panic(err)
	}
	write(sdir, "valid-gzip", zipped.Bytes())
	write(sdir, "truncated-gzip", zipped.Bytes()[:len(zipped.Bytes())/2])
	write(sdir, "bare-gzip-magic", []byte{0x1f, 0x8b})
	var junkz bytes.Buffer
	zw := gzip.NewWriter(&junkz)
	zw.Write([]byte("not json"))
	zw.Close()
	write(sdir, "gzip-non-json", junkz.Bytes())
	write(sdir, "open-brace", []byte("{"))
	write(sdir, "empty-object", []byte("{}"))
	write(sdir, "raw-buffer", []byte(`{"buffers":[{"raw":"AAAA"}]}`))
	write(sdir, "empty", []byte{})
	// Fuzzer-found: case-insensitive JSON field matching can populate
	// an omitempty slice with a present-but-empty value, a form Save
	// never emits (canonicalized on first save).
	write(sdir, "case-insensitive-empty-partners", []byte(`{"pArtners":[]}`))

	// FuzzSnapDecode holds the snap decoder to encoding/json; beside
	// every committed snap (added by the fuzz target itself) its seeds
	// are the schema's edge cases.
	ddir := filepath.Join(root, "internal/snap/testdata/fuzz/FuzzSnapDecode")
	decodeSeeds := []struct{ name, doc string }{
		{"escapes", `{"host":"h\u00e9\n\"q\"\\","process":"\ud83d\ude00","reason":"\ud800x\udc00\u0000","modules":[{"name":"\/m","checksum":"\u0041"}]}`},
		{"invalid-utf8", "{\"host\":\"\xff\xfe ok \xed\xa0\x80\",\"reason\":\"\xc3\"}"},
		{"nulls", `{"host":null,"pid":null,"modules":null,"buffers":[null,{"raw":null,"kind":null,"lastKnown":null}],"partners":null,"nondet":null}`},
		{"unknown-nested-keys", `{"extra":{"a":[1,{"b":null}],"c":"d","e":-1.5e-3},"host":"h","buffers":[{"zzz":[[[]]],"raw":"AAAA","more":{"x":true}}]}`},
		{"duplicate-keys", `{"buffers":[{"kind":1,"raw":"AQID"},{"ownerTid":2}],"buffers":[{"lastPtr":3}],"buffers":[null,null],"nondet":{"v":1,"raw":"AAAA"},"nondet":{"scenario":"s"},"host":"a","host":"b"}`},
		{"duplicate-byte-arrays", `{"partners":[1,2,3],"partners":[4],"partners":[null,null,null],"modules":[{"dataDump":"AQIDBA=="}],"modules":[{"dataDump":[9,null,null]}]}`},
		{"case-folded-keys", `{"HOST":"h","pArtners":[],"RunTimeID":5,"proce\u017fs":"p","modules":[{"DAGBASE":7}],"buffers":[{"RAW":"AAAA","\u212aind":2}],"Nondet":{"\u017fcenario":"x"},"ſignal":3}`},
		{"case-folded-last-wins", `{"Host":"folded","host":"exact","HOST":"folded again"}`},
		{"uint8-out-of-range", `{"buffers":[{"kind":256}]}`},
		{"int-out-of-range", `{"pid":9223372036854775808}`},
		{"int-min", `{"pid":-9223372036854775808,"signal":-0}`},
		{"uint64-max", `{"runtimeId":18446744073709551615,"time":0}`},
		{"uint64-out-of-range", `{"runtimeId":18446744073709551616}`},
		{"uint-negative-zero", `{"buffers":[{"lastPtr":-0}]}`},
		{"float-on-int", `{"pid":1.0}`},
		{"exponent-on-uint", `{"time":1e3}`},
		{"base64-escaped-crlf", `{"buffers":[{"raw":"AAAA\r\nAQID\r\n"}],"modules":[{"dataDump":"AQ\nID"}]}`},
		{"base64-raw-newline", "{\"buffers\":[{\"raw\":\"AAAA\nAQID\"}]}"},
		{"base64-padding-mid", `{"buffers":[{"raw":"AA==AAAA"}]}`},
		{"base64-short", `{"buffers":[{"raw":"AAA"}]}`},
		{"base64-trailing-bits", `{"buffers":[{"raw":"AB=="},{"raw":"AAB="}]}`},
		{"base64-bad-char", `{"buffers":[{"raw":"AAAA*AAA"}]}`},
		{"empty-values", `{"buffers":[{"raw":""}],"modules":[],"partners":[],"host":""}`},
		{"type-mismatch-string", `{"host":5}`},
		{"type-mismatch-object", `{"modules":{}}`},
		{"type-mismatch-nondet", `{"nondet":[]}`},
		{"type-mismatch-element", `{"buffers":[1]}`},
		{"top-level-null", `null`},
		{"top-level-array", `[]`},
		{"trailing-garbage", `{"host":"h"}garbage`},
		{"trailing-space", "{\"host\":\"h\"} \n\t\r"},
		{"trailing-comma", `{"host":"h",}`},
		{"missing-colon", `{"host" "h"}`},
		{"leading-zero", `{"pid":01}`},
		{"bad-escape", `{"host":"a\qb"}`},
		{"truncated", `{"buffers":[{"raw":"AAAA`},
		// Fuzzer-found: Unmarshal calls a literal cut short a bad
		// character, the decoder io.ErrUnexpectedEOF (as json.Decoder).
		{"truncated-literal", "{\"000\":\"0000000000\",\"0000000\":\"000000000\",\"000\":0,\"000000000\":0,\"000000\":\"00000000000000000000\",\"0000\":0,\"0000000\":[{\"0000\":\"000000\",\"00000000\":\"00000000000000000000000000000000\",\"0000000\":0,\"00000000\":0,\"00000000\":0,\"0000000\":0,\"00000000\":0,\"00000000\":\"00000000000000000000000000000000\"}],\"0000000\": {\"0000\":0,\"00000000\":0,\"0000000\":0,\"000000000\":t"},
	}
	for _, s := range decodeSeeds {
		write(ddir, s.name, []byte(s.doc))
	}

	// FuzzSnapEncode holds Save to encoding/json; beside every committed
	// snap and FuzzSnapDecode's corpus (added by the fuzz target itself)
	// its seeds are the encoder's edge cases.
	edir := filepath.Join(root, "internal/snap/testdata/fuzz/FuzzSnapEncode")
	encodeSeeds := []struct{ name, doc string }{
		{"html-and-separators", `{"host":"<a href=\"x\">&amp;</a>","process":"p\u2028q\u2029r","reason":"\u007f\u0000\u001f\b\f\n\r\t\\/","modules":[{"name":"a&b<c>d","checksum":"\u2029"}],"nondet":{"scenario":"<&>"}}`},
		{"invalid-utf8", "{\"host\":\"\xff\xfe ok \xed\xa0\x80\",\"reason\":\"\xc3\",\"modules\":[{\"name\":\"\xf0\x9f\"}]}"},
		{"nil-slices", `{"modules":null,"buffers":null,"partners":null,"nondet":{"raw":null}}`},
		{"empty-slices", `{"modules":[{"dataDump":""}],"buffers":[{"raw":""},{"raw":null},{}],"partners":[],"nondet":{"raw":""}}`},
		{"omitempty-set", `{"triggerTid":1,"signal":-8,"faultAddr":18446744073709551615,"pid":-9223372036854775808,"partners":[0,18446744073709551615],"modules":[{"unloaded":true,"badDag":true,"dataBase":4294967295,"dataDump":"AA=="}],"nondet":{"v":-1,"wrap":true,"trial":true,"interval":1}}`},
		{"long-string", `{"host":"` + strings.Repeat(`a<\u2028\u00e9`, 3000) + `"}`},
	}
	// Raw lengths that are not multiples of 3, and zero runs that
	// straddle the encoder's 192-byte chunk boundary.
	var bufs []snap.BufferDump
	for _, n := range []int{1, 2, 4, 5, 190, 191, 193, 194, 385} {
		raw := make([]byte, n)
		raw[n-1] = 0xff
		bufs = append(bufs, snap.BufferDump{Raw: raw})
	}
	for _, live := range [][]int{{191}, {192}, {190, 194}, {383, 384, 385}, {0, 575}} {
		raw := make([]byte, 576)
		for _, i := range live {
			raw[i] = byte(i)
		}
		bufs = append(bufs, snap.BufferDump{Raw: raw})
	}
	runs, err := json.Marshal(&snap.Snap{Buffers: bufs})
	if err != nil {
		panic(err)
	}
	encodeSeeds = append(encodeSeeds, struct{ name, doc string }{"raw-lengths-and-runs", string(runs)})
	nondet := &snap.Snap{Host: "h", Nondet: &snap.NondetLog{V: 1, Scenario: "crossmachine", Wrap: true, Interval: 5000,
		Raw: wordsToBytes([]uint32{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7})}}
	nd, err := json.Marshal(nondet)
	if err != nil {
		panic(err)
	}
	encodeSeeds = append(encodeSeeds, struct{ name, doc string }{"nondet", string(nd)})
	for _, s := range encodeSeeds {
		write(edir, s.name, []byte(s.doc))
	}
}
