package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Lint checks that body is one valid text exposition as a Prometheus
// scraper reads it, beyond per-line syntax: every family has at most one
// TYPE line, ahead of its samples, and its lines form one contiguous
// block; all samples of a family carry the same set of label keys (le
// aside on histogram buckets); and every histogram series has
// cumulative buckets in increasing le order ending at le="+Inf", equal
// to its _count. It returns the first violation found.
func Lint(body string) error {
	types := map[string]string{} // family -> TYPE
	keys := map[string]string{}  // family -> canonical label-key set
	closed := map[string]bool{}  // families whose block has ended
	type bucketRun struct {
		le, cum float64
		inf     bool
	}
	buckets := map[string]*bucketRun{} // histogram series -> last bucket
	counts := map[string]float64{}     // histogram series -> _count
	cur := ""
	enter := func(fam string) error {
		if fam == cur {
			return nil
		}
		if closed[fam] {
			return fmt.Errorf("family %s appears in two separate blocks", fam)
		}
		if cur != "" {
			closed[cur] = true
		}
		cur = fam
		return nil
	}
	for n, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			f := strings.Fields(rest)
			if len(f) < 2 || (f[0] != "HELP" && f[0] != "TYPE") {
				continue // plain comment
			}
			if err := enter(f[1]); err != nil {
				return fmt.Errorf("line %d: %w", n+1, err)
			}
			if f[0] == "TYPE" {
				if len(f) != 3 {
					return fmt.Errorf("line %d: malformed TYPE line %q", n+1, line)
				}
				if _, dup := types[f[1]]; dup {
					return fmt.Errorf("line %d: second TYPE line for family %s", n+1, f[1])
				}
				types[f[1]] = f[2]
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", n+1, err)
		}
		fam, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, s); ok && types[base] == "histogram" {
				fam, suffix = base, s
			}
		}
		if err := enter(fam); err != nil {
			return fmt.Errorf("line %d: %w", n+1, err)
		}
		var le string
		var ks []string
		var series strings.Builder
		for _, l := range labels {
			if suffix == "_bucket" && l.Key == "le" {
				le = l.Value
				continue
			}
			ks = append(ks, l.Key)
			fmt.Fprintf(&series, "%s=%q,", l.Key, l.Value)
		}
		sort.Strings(ks)
		set := strings.Join(ks, ",")
		if prev, ok := keys[fam]; !ok {
			keys[fam] = set
		} else if prev != set {
			return fmt.Errorf("line %d: family %s mixes label keys {%s} and {%s}", n+1, fam, prev, set)
		}
		id := fam + "{" + series.String() + "}"
		switch suffix {
		case "_bucket":
			bound, err := strconv.ParseFloat(le, 64)
			if le == "" || err != nil {
				return fmt.Errorf("line %d: bucket without a numeric le label", n+1)
			}
			b := buckets[id]
			if b == nil {
				b = &bucketRun{le: math.Inf(-1)}
				buckets[id] = b
			}
			if b.inf || bound <= b.le || value < b.cum {
				return fmt.Errorf("line %d: buckets of %s are not cumulative in increasing le order", n+1, id)
			}
			b.le, b.cum, b.inf = bound, value, math.IsInf(bound, 1)
		case "_count":
			counts[id] = value
		}
	}
	for id, b := range buckets {
		if !b.inf {
			return fmt.Errorf("histogram series %s has no le=\"+Inf\" bucket", id)
		}
		if c, ok := counts[id]; !ok || c != b.cum {
			return fmt.Errorf("histogram series %s: +Inf bucket %v does not equal _count", id, b.cum)
		}
	}
	return nil
}

// parseSample parses one sample line: name{k="v",...} value.
func parseSample(line string) (string, []Label, float64, error) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", nil, 0, fmt.Errorf("sample line without a value: %q", line)
	}
	value, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("sample value in %q: %v", line, err)
	}
	head := line[:sp]
	name, rest, hasLabels := strings.Cut(head, "{")
	if !validName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name in %q", line)
	}
	if !hasLabels {
		return name, nil, value, nil
	}
	var labels []Label
	for {
		k, r, ok := strings.Cut(rest, `="`)
		if !ok || !validName(k) || strings.Contains(k, ":") {
			return "", nil, 0, fmt.Errorf("malformed label block in %q", line)
		}
		var v strings.Builder
		i := 0
		for ; i < len(r) && r[i] != '"'; i++ {
			if r[i] == '\\' && i+1 < len(r) {
				i++
			}
			v.WriteByte(r[i])
		}
		if i >= len(r) {
			return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
		}
		labels = append(labels, Label{k, v.String()})
		r = r[i+1:]
		if r == "}" {
			return name, labels, value, nil
		}
		if !strings.HasPrefix(r, ",") {
			return "", nil, 0, fmt.Errorf("malformed label block in %q", line)
		}
		rest = r[1:]
	}
}

// validName reports whether s is a valid metric or label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
