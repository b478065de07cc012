package serve

// scanTxnBody decodes the one body shape clients send: a JSON object with
// one or more of the keys "session", "kind" and "deadline_ms", exact case,
// each at most once, in any order, with JSON whitespace between tokens; the
// two strings printable ASCII without a backslash, the deadline an integer
// of at most 18 digits. For such a body it returns what json.Unmarshal into
// a txnRequest decodes, the strings as b's own bytes. ok is false for every
// other body, valid or not: json.Unmarshal's case-folded keys, escapes,
// nulls, floats, duplicate keys and error messages are left to it.
func scanTxnBody(b []byte) (session, kind []byte, deadlineMS int64, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return nil, nil, 0, false
	}
	i = skipSpace(b, i+1)
	var seen [3]bool
	for {
		key, j, good := scanString(b, i)
		if !good {
			return nil, nil, 0, false
		}
		if i = skipSpace(b, j); i == len(b) || b[i] != ':' {
			return nil, nil, 0, false
		}
		i = skipSpace(b, i+1)
		var field int
		switch string(key) {
		case "session":
			session, i, good = scanString(b, i)
		case "kind":
			field = 1
			kind, i, good = scanString(b, i)
		case "deadline_ms":
			field = 2
			deadlineMS, i, good = scanInt(b, i)
		default:
			return nil, nil, 0, false
		}
		if !good || seen[field] {
			return nil, nil, 0, false
		}
		seen[field] = true
		if i = skipSpace(b, i); i == len(b) {
			return nil, nil, 0, false
		}
		switch b[i] {
		case '}':
			return session, kind, deadlineMS, skipSpace(b, i+1) == len(b)
		case ',':
			i = skipSpace(b, i+1)
		default:
			return nil, nil, 0, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString reads the string starting at b[i] when it is printable ASCII
// without a backslash, returning its contents and the index after it.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < ' ' || c > '~' || c == '\\':
			return nil, i, false
		}
	}
	return nil, i, false
}

// scanInt reads the JSON integer starting at b[i] when it has at most 18
// digits, so that it fits in int64 whatever they are.
func scanInt(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		n = 10*n + int64(b[i]-'0')
	}
	if digits := i - start; digits == 0 || digits > 18 || (b[start] == '0' && digits > 1) {
		return 0, i, false
	}
	if neg {
		n = -n
	}
	return n, i, true
}

// kindName returns b as a string, without allocating when b names a kind
// synthesize builds.
func kindName(b []byte) string {
	for _, k := range [...]string{"transfer", "audit", "credit", ""} {
		if string(b) == k {
			return k
		}
	}
	return string(b)
}
