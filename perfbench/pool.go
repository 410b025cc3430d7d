package main

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/smtlib"
)

// problem is one benchmark input as users send it: SMT-LIB text plus
// the generator's planted verdict.
type problem struct {
	name     string // suite/instance, unique within a pool
	text     string
	expected bench.Expected
}

// tablesPerSuite is the instance count drawn from each Table 1 and
// Table 2 generator, the corpus size `benchgen` writes by default.
const tablesPerSuite = 30

// luhnDigits are the checkLuhn loop counts of the luhn workload: k=2
// up to the largest k that settles within luhnDeadline through the
// SMT-LIB path on a 2-core host (k=10 needs about 7 s there).
var luhnDigits = []int{2, 3, 4, 5, 6, 7, 8, 9}

// tablesPool renders every Table 1 and Table 2 generator instance as
// SMT-LIB. Instances the writer cannot express are returned by name,
// never dropped silently.
func tablesPool() (pool []problem, unwritable []string) {
	suites := append(bench.Table1Suites(tablesPerSuite), bench.Table2Suites(tablesPerSuite)...)
	for _, s := range suites {
		for i, in := range s.Instances {
			// Some suites reuse instance names (JavaScript embeds Luhn(k)).
			name := fmt.Sprintf("%s/%s#%d", s.Name, in.Name, i)
			text, err := smtlib.Write(in.Build())
			if err != nil {
				unwritable = append(unwritable, name+": "+err.Error())
				continue
			}
			pool = append(pool, problem{name: name, text: text, expected: in.Expected})
		}
	}
	return pool, unwritable
}

// luhnPool renders the checkLuhn family of paper Table 3.
func luhnPool() []problem {
	pool := make([]problem, 0, len(luhnDigits))
	for _, k := range luhnDigits {
		in := bench.Luhn(k)
		text, err := smtlib.Write(in.Build())
		if err != nil {
			panic("perfbench: checkLuhn has no SMT-LIB form: " + err.Error()) // contract: the writer covers every Luhn construct
		}
		pool = append(pool, problem{name: "checkLuhn/" + in.Name, text: text, expected: in.Expected})
	}
	return pool
}

// alphaRename renames every declared symbol of an SMT-LIB script by
// appending tag, leaving string literals untouched. The result is
// alpha-equivalent to the input, so it has the same canonical hash.
func alphaRename(text, tag string) (string, error) {
	script, err := smtlib.Parse(text)
	if err != nil {
		return "", fmt.Errorf("alpha-rename: %w", err)
	}
	declared := make(map[string]bool, len(script.StrVars)+len(script.IntVars))
	for n := range script.StrVars {
		declared[n] = true
	}
	for n := range script.IntVars {
		declared[n] = true
	}
	var b strings.Builder
	for i := 0; i < len(text); {
		c := text[i]
		switch {
		case c == '"':
			// String literal; "" is an escaped quote inside it.
			j := i + 1
			for j < len(text) {
				if text[j] == '"' {
					if j+1 < len(text) && text[j+1] == '"' {
						j += 2
						continue
					}
					break
				}
				j++
			}
			b.WriteString(text[i : j+1])
			i = j + 1
		case c == ';':
			j := strings.IndexByte(text[i:], '\n')
			if j < 0 {
				j = len(text) - i
			}
			b.WriteString(text[i : i+j])
			i += j
		case isSymbolByte(c):
			j := i
			for j < len(text) && isSymbolByte(text[j]) {
				j++
			}
			tok := text[i:j]
			b.WriteString(tok)
			if declared[tok] {
				b.WriteString(tag)
			}
			i = j
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String(), nil
}

func isSymbolByte(c byte) bool {
	return c > ' ' && c != '(' && c != ')' && c != '"' && c != ';' && c != '|'
}
