package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestGenSpecRejectsBadNumbers: Validate must refuse the NaN/Inf holes
// that ordered comparisons miss — a NaN duration passes "<= 0" and
// would generate forever; a NaN rate or SCV poisons every inter-arrival
// draw — and deriveArrivals must panic with the same error rather than
// generate from such a spec.
func TestGenSpecRejectsBadNumbers(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]struct {
		spec GenSpec
		want string // substring of the error
	}{
		"zero sites":     {GenSpec{Duration: 10, PerSiteRate: 5}, "Sites"},
		"negative sites": {GenSpec{Sites: -1, Duration: 10, PerSiteRate: 5}, "Sites"},
		"zero duration":  {GenSpec{Sites: 2, PerSiteRate: 5}, "Duration"},
		"nan duration":   {GenSpec{Sites: 2, Duration: nan, PerSiteRate: 5}, "Duration"},
		"inf duration":   {GenSpec{Sites: 2, Duration: inf, PerSiteRate: 5}, "Duration"},
		"zero rate":      {GenSpec{Sites: 2, Duration: 10}, "PerSiteRate"},
		"nan rate":       {GenSpec{Sites: 2, Duration: 10, PerSiteRate: nan}, "PerSiteRate"},
		"inf rate":       {GenSpec{Sites: 2, Duration: 10, PerSiteRate: inf}, "PerSiteRate"},
		"negative rate":  {GenSpec{Sites: 2, Duration: 10, PerSiteRate: -3}, "PerSiteRate"},
		"nan scv":        {GenSpec{Sites: 2, Duration: 10, PerSiteRate: 5, ArrivalSCV: nan}, "ArrivalSCV"},
		"inf scv":        {GenSpec{Sites: 2, Duration: 10, PerSiteRate: 5, ArrivalSCV: inf}, "ArrivalSCV"},
		"negative scv":   {GenSpec{Sites: 2, Duration: 10, PerSiteRate: 5, ArrivalSCV: -0.4}, "ArrivalSCV"},
		"arrivals count": {GenSpec{Sites: 2, Duration: 10,
			Arrivals: []workload.ArrivalProcess{workload.NewPoisson(5)}}, "arrival processes"},
	}
	for name, tc := range cases {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error naming %s", name, err, tc.want)
		}
	}

	// deriveArrivals panics with Validate's error instead of deriving.
	func() {
		spec := cases["nan duration"].spec
		defer func() {
			err, ok := recover().(error)
			if !ok || err.Error() != spec.Validate().Error() {
				t.Errorf("deriveArrivals on a NaN duration: recovered %v, want Validate's error", err)
			}
		}()
		deriveArrivals(&spec)
	}()

	// The happy path validates and derives: default SCV, an explicit
	// one, and explicit processes that override a zero rate.
	for _, spec := range []GenSpec{
		{Sites: 2, Duration: 10, PerSiteRate: 5},
		{Sites: 2, Duration: 10, PerSiteRate: 5, ArrivalSCV: 1.2},
		{Sites: 2, Duration: 10, Arrivals: []workload.ArrivalProcess{workload.NewPoisson(5), workload.NewPoisson(3)}},
	} {
		if err := spec.Validate(); err != nil {
			t.Errorf("valid spec %+v: %v", spec, err)
		}
		if got := deriveArrivals(&spec); len(got) != 2 {
			t.Errorf("valid spec derived %d processes, want 2", len(got))
		}
	}
}
