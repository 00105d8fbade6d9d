package xen

// GrantTableLen returns the length of d's grant table, ref 0's slot
// included, for the external tests.
func GrantTableLen(d *Domain) int { return len(d.grants) }
