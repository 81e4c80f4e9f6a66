package libdpr

// PumpGapSeals exposes the pump's duty-cycle constant to the external tests.
const PumpGapSeals = pumpGapSeals
