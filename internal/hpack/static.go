package hpack

// staticTable is the fixed table of RFC 7541 Appendix A. Index 0 is
// unused; HPACK indices are 1-based.
var staticTable = [...]HeaderField{
	{},
	{Name: ":authority"},
	{Name: ":method", Value: "GET"},
	{Name: ":method", Value: "POST"},
	{Name: ":path", Value: "/"},
	{Name: ":path", Value: "/index.html"},
	{Name: ":scheme", Value: "http"},
	{Name: ":scheme", Value: "https"},
	{Name: ":status", Value: "200"},
	{Name: ":status", Value: "204"},
	{Name: ":status", Value: "206"},
	{Name: ":status", Value: "304"},
	{Name: ":status", Value: "400"},
	{Name: ":status", Value: "404"},
	{Name: ":status", Value: "500"},
	{Name: "accept-charset"},
	{Name: "accept-encoding", Value: "gzip, deflate"},
	{Name: "accept-language"},
	{Name: "accept-ranges"},
	{Name: "accept"},
	{Name: "access-control-allow-origin"},
	{Name: "age"},
	{Name: "allow"},
	{Name: "authorization"},
	{Name: "cache-control"},
	{Name: "content-disposition"},
	{Name: "content-encoding"},
	{Name: "content-language"},
	{Name: "content-length"},
	{Name: "content-location"},
	{Name: "content-range"},
	{Name: "content-type"},
	{Name: "cookie"},
	{Name: "date"},
	{Name: "etag"},
	{Name: "expect"},
	{Name: "expires"},
	{Name: "from"},
	{Name: "host"},
	{Name: "if-match"},
	{Name: "if-modified-since"},
	{Name: "if-none-match"},
	{Name: "if-range"},
	{Name: "if-unmodified-since"},
	{Name: "last-modified"},
	{Name: "link"},
	{Name: "location"},
	{Name: "max-forwards"},
	{Name: "proxy-authenticate"},
	{Name: "proxy-authorization"},
	{Name: "range"},
	{Name: "referer"},
	{Name: "refresh"},
	{Name: "retry-after"},
	{Name: "server"},
	{Name: "set-cookie"},
	{Name: "strict-transport-security"},
	{Name: "transfer-encoding"},
	{Name: "user-agent"},
	{Name: "vary"},
	{Name: "via"},
	{Name: "www-authenticate"},
}

// staticTableLen is the number of valid static indices (61).
const staticTableLen = len(staticTable) - 1

// staticName maps a header name to the first static index with that name.
var staticName = func() map[string]int {
	m := make(map[string]int, staticTableLen)
	for i := 1; i <= staticTableLen; i++ {
		if _, dup := m[staticTable[i].Name]; !dup {
			m[staticTable[i].Name] = i
		}
	}
	return m
}()

// staticIndex returns the static index of the entry equal to
// (name, value); failing that, the first index with that name and
// nameOnly set; zero when the name is not in the table. Entries sharing
// a name are adjacent in the table (at most seven, the :status codes),
// so after the name lookup only their values are compared: no key is
// built, nothing allocates.
//
//repolint:hotpath
func staticIndex(name, value string) (idx int, nameOnly bool) {
	first, ok := staticName[name]
	if !ok {
		return 0, false
	}
	for i := first; i <= staticTableLen && staticTable[i].Name == name; i++ {
		if staticTable[i].Value == value {
			return i, false
		}
	}
	return first, true
}
