package shardtest

import (
	"reflect"
	"testing"
)

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"8", []int{8}},
		{"1", []int{1}},
		{"1,2,8", []int{1, 2, 8}},
		{" 2, 4 ", []int{2, 4}},
	} {
		got, err := Parse(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"0", "-1", "x", "2,,4", "2,", "1.5"} {
		if got, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) = %v, want an error", bad, got)
		}
	}
}

func TestWorkerCounts(t *testing.T) {
	t.Setenv(Env, "")
	if got := WorkerCounts(t, 2, 4); !reflect.DeepEqual(got, []int{2, 4}) {
		t.Errorf("unset: %v, want the defaults", got)
	}
	t.Setenv(Env, "3,5")
	if got := WorkerCounts(t, 2, 4); !reflect.DeepEqual(got, []int{3, 5}) {
		t.Errorf("%s=3,5: %v", Env, got)
	}
}
