package lint

// The contract manifest is the machine-checked bridge between DESIGN.md §8
// ("Determinism contract — enforced rules") and the analyzer registry:
// every documented rule names the analyzer that enforces it, and
// TestContractManifest fails if the table and this list drift apart in
// either direction — a documented contract with no enforcing analyzer, an
// analyzer with no documented contract, or a mismatched pairing.

// A Contract is one enforced rule of the determinism contract.
type Contract struct {
	// ID is the rule identifier; by convention it equals the enforcing
	// analyzer's name so diagnostics, allow directives, and the DESIGN.md
	// table all use one vocabulary.
	ID string
	// Statement is the contract in one sentence.
	Statement string
	// Analyzer is the name of the registered analyzer enforcing the rule.
	Analyzer string
	// Exemption describes the sanctioned escape hatch.
	Exemption string
}

// Contracts returns the full manifest in registry order.
func Contracts() []Contract {
	return []Contract{
		{
			ID:        "xrandonly",
			Statement: "All randomness flows through internal/xrand; raw math/rand generators appear nowhere else, tests included.",
			Analyzer:  "xrandonly",
			Exemption: "//crlint:allow xrandonly <reason> (internal/xrand itself is exempt)",
		},
		{
			ID:        "nowallclock",
			Statement: "Library code never reads the wall clock or arms wall-clock deadlines; runs are pure functions of their seeds.",
			Analyzer:  "nowallclock",
			Exemption: "//crlint:allow nowallclock <reason> on reporting-only timing sites",
		},
		{
			ID:        "maporder",
			Statement: "No map iteration feeds output, aggregation, or rng consumption; order-sensitive loops iterate over sorted keys.",
			Analyzer:  "maporder",
			Exemption: "//crlint:allow maporder <reason>, or the collect-then-sort idiom",
		},
		{
			ID:        "seedsplit",
			Statement: "Every generator gets its own xrand.Split-derived seed; no seed expression is reused or loop-invariant.",
			Analyzer:  "seedsplit",
			Exemption: "//crlint:allow seedsplit <reason> for deliberate stream comparisons",
		},
		{
			ID:        "hotalloc",
			Statement: "Functions annotated //crlint:hotpath neither contain nor transitively reach allocation sites, wall-clock reads, or rng constructions through same-package helpers.",
			Analyzer:  "hotalloc",
			Exemption: "//crlint:allow hotalloc <reason> on the call or allocation site",
		},
		{
			ID:        "partwrite",
			Statement: "Goroutines launched in a loop write captured state only through a goroutine-owned partition index (such as a worker's own slot); no shared writes or non-atomic counter bumps.",
			Analyzer:  "partwrite",
			Exemption: "//crlint:allow partwrite <reason>, mutex-guarded closures, or channels",
		},
		{
			ID:        "floatorder",
			Statement: "Floating-point accumulation follows ascending index order; no reductions driven by descending loops or channel-receive arrival order.",
			Analyzer:  "floatorder",
			Exemption: "//crlint:allow floatorder <reason> with a documented merge order",
		},
		{
			ID:        "spechash",
			Statement: "Structs annotated //crlint:spechash keep canonical hashes stable: exported serialized fields carry json omitempty tags and appear in the package's <type>HashFields list.",
			Analyzer:  "spechash",
			Exemption: "//crlint:allow spechash <reason> on required always-present fields",
		},
	}
}
