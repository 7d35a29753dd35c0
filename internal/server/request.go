package server

// The /v1/query and /v1/invalidate request body: a JSON object with
// two string fields. encoding/json's Decoder reads the body through a
// buffer and a scanner of its own per request; here the body is read
// into a pooled buffer, the first JSON value's end is found by strings
// and brackets, and json.Unmarshal decodes that span.
//
// The contract is json.NewDecoder(body).Decode(&req)'s, value for value
// (FuzzDecodeRequestAgreesWithStdlib): only the first JSON value counts
// and what follows it is never looked at; a top-level null leaves the
// request empty and any other non-object is an error. The object itself
// goes through json.Unmarshal, the Decoder's own decoding: its keys,
// escapes, null and type rules are encoding/json's by construction.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
)

// maxRequestBytes bounds the body of /v1/query and /v1/invalidate — a
// tenant name and one query text — so a client cannot make the daemon
// buffer an unbounded request.
const maxRequestBytes = 1 << 20

// requestBodies recycles request buffers: the decoded fields are
// copies, so a body is dead once decoded.
var requestBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// requestBodyMaxKept bounds the buffers requestBodies keeps, so that
// one large query text stays out of the pool.
const requestBodyMaxKept = 64 << 10

// decodeRequest reads the POSTed Request of a handler. On failure it
// has already answered — 405, 413 for a body over maxRequestBytes, 400
// for anything else undecodable — and reports false.
func decodeRequest(w http.ResponseWriter, r *http.Request) (Request, bool) {
	var req Request
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return req, false
	}
	buf := requestBodies.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err == nil {
		req, err = parseRequest(buf.Bytes())
	}
	if buf.Cap() <= requestBodyMaxKept {
		requestBodies.Put(buf)
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request: "+err.Error(), status)
		return req, false
	}
	return req, true
}

var errNotObject = errors.New("json: the request body is not a JSON object")

// parseRequest decodes the first JSON value of body as
// json.Decoder.Decode decodes it into a Request.
func parseRequest(body []byte) (Request, error) {
	var req Request
	start := skipSpace(body, 0)
	switch {
	case start == len(body):
		return req, io.EOF
	case bytes.HasPrefix(body[start:], []byte("null")):
		return req, nil // the Decoder stops after null, whatever follows
	case body[start] != '{':
		return req, errNotObject
	}
	end := skipObject(body, start)
	if end < 0 {
		return req, io.ErrUnexpectedEOF
	}
	return req, json.Unmarshal(body[start:end], &req)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipObject returns where the JSON object at b[i] ends, tracking only
// strings and brackets, or -1 when b ends first. On a valid object it
// is exact; on any other, json.Unmarshal of what it spans fails.
func skipObject(b []byte, i int) int {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
	return -1
}
