// Package shardtest picks the engine worker counts that the sharded
// engine's invariance tests compare against a 1-worker run. It serves
// the tests of internal/sim, internal/testbed and internal/experiments.
package shardtest

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// Env is the variable that overrides a test's default worker counts:
// a comma-separated list of positive counts such as "1,2,8". A single
// value pins one count, which is how CI's shard matrix gives each job
// one cell.
const Env = "BPS_TEST_SHARDS"

// Parse reads an Env value into its worker counts.
func Parse(s string) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("%s=%q: want a comma-separated list of positive integers", Env, s)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// WorkerCounts returns the worker counts listed in Env, or defaults
// when it is unset or empty. A malformed value fails the test.
func WorkerCounts(t testing.TB, defaults ...int) []int {
	t.Helper()
	s := os.Getenv(Env)
	if s == "" {
		return defaults
	}
	counts, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}
