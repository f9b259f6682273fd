package cliflag

import (
	"strings"
	"testing"
)

func TestParseJobs(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"1", 1, true}, {"8", 8, true}, {"96", 96, true}, {"auto", 0, true},
		{"0", 0, false}, {"-3", 0, false}, {"-8", 0, false}, {"", 0, false},
		{"eight", 0, false}, {"4.5", 0, false}, {"1.5", 0, false},
		{" 4", 0, false}, {"4 ", 0, false}, {"0x4", 0, false},
		{"AUTO", 0, false}, // case-sensitive, like every other flag value
	}
	for _, c := range cases {
		got, err := ParseJobs(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseJobs(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if err == nil && c.in != "auto" && got != c.want {
			t.Errorf("ParseJobs(%q) = %d, want %d", c.in, got, c.want)
		}
		if c.in == "auto" && err == nil && got <= 0 {
			t.Errorf("ParseJobs(auto) = %d, want > 0", got)
		}
	}
}

func TestNumericFlagValidators(t *testing.T) {
	if err := PositiveInt("n", 3); err != nil {
		t.Error(err)
	}
	for _, v := range []int{0, -1} {
		if err := PositiveInt("n", v); err == nil || !strings.Contains(err.Error(), "-n") {
			t.Errorf("PositiveInt(%d) = %v, want error naming the flag", v, err)
		}
	}
	if err := NonNegativeInt("queue", 0); err != nil {
		t.Error(err)
	}
	if err := NonNegativeInt("queue", -1); err == nil {
		t.Error("NonNegativeInt(-1) accepted")
	}
	if err := PositiveFloat("hours", 24); err != nil {
		t.Error(err)
	}
	for _, v := range []float64{0, -2} {
		if err := PositiveFloat("hours", v); err == nil {
			t.Errorf("PositiveFloat(%v) accepted", v)
		}
	}
}
