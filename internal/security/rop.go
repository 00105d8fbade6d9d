package security

// Category is a Follner et al. gadget class (the twelve categories of
// Figure 5).
type Category int

// Gadget categories.
const (
	CatDataMove Category = iota
	CatArithmetic
	CatLogic
	CatControlFlow
	CatShiftRotate
	CatSettingFlags
	CatString
	CatFloating
	CatMisc
	CatMMX
	CatNOP
	CatRET
	NumCategories
)

var categoryNames = [NumCategories]string{
	"DataMove", "Arithmetic", "Logic", "ControlFlow", "ShiftAndRotate",
	"SettingFlags", "String", "Floating", "Misc", "MMX", "Nop", "Ret",
}

func (c Category) String() string {
	if c >= 0 && c < NumCategories {
		return categoryNames[c]
	}
	return "?"
}

// GadgetConfig is one kernel configuration of Figures 1b/5 with its ROP
// gadget count per category.
type GadgetConfig struct {
	Name   string
	Counts [NumCategories]uint64
}

// GadgetTable lists the six configurations of Figures 1b/5, Kite first and
// then five Linux kernels with their modules, smallest to largest. The
// counts are typed inputs, not a measurement: they were frozen from a
// retired synthetic scan, whose totals were a ratio of typed code sizes
// plus seed noise. Scans of real kernel images would replace them.
var GadgetTable = []GadgetConfig{
	{"Kite", [NumCategories]uint64{28305, 9177, 10571, 12079, 1615, 1498, 1890, 4663, 759, 1383, 1646, 26085}},
	{"Default", [NumCategories]uint64{102789, 33968, 36718, 44016, 6105, 5214, 6919, 17451, 2915, 4922, 5637, 95023}},
	{"CentOS", [NumCategories]uint64{976237, 316837, 350542, 418792, 59010, 48772, 58852, 161805, 27405, 45360, 52342, 904102}},
	{"Fedora", [NumCategories]uint64{1789710, 584025, 647595, 786337, 110077, 88530, 110760, 303712, 48360, 89407, 92820, 1681875}},
	{"Debian", [NumCategories]uint64{2079000, 671962, 740025, 885487, 123975, 103612, 125550, 350212, 55575, 98775, 116325, 1944900}},
	{"Ubuntu", [NumCategories]uint64{2227050, 731080, 810827, 974610, 138057, 113435, 146020, 375707, 59902, 107677, 118212, 2081397}},
}

// TotalGadgets sums a count vector.
func TotalGadgets(counts [NumCategories]uint64) uint64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	return total
}
