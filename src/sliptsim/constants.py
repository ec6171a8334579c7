"""Physical constants (CODATA 2018 exact values)."""

BOLTZMANN_J_PER_K = 1.380649e-23
ELEMENTARY_CHARGE_C = 1.602176634e-19
PLANCK_J_S = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0

# Default operating conditions: the VCSEL wavelength the beam and the
# quantum limit share, and the temperature of the diodes and the load.
DEFAULT_WAVELENGTH_NM = 847.0
DEFAULT_TEMPERATURE_K = 298.15

# The experimental link: the VCSEL's emitted power, and the per-carrier
# bit-error-rate ceiling the measured data rates were recorded at.
DEFAULT_EMITTED_POWER_W = 2.3e-3
BER_TARGET = 4.7e-3

# The read-out's fixed amplifier: its input impedance, which the AC path
# sees in parallel with the bias load, and its noise figure.
AMPLIFIER_INPUT_OHM = 50.0
AMPLIFIER_NOISE_FIGURE_DB = 6.0

# hc/q in eV*nm; responsivity quantum limit is wavelength_nm / this.
EV_NM = PLANCK_J_S * SPEED_OF_LIGHT_M_S / ELEMENTARY_CHARGE_C * 1e9


def thermal_voltage(temperature_k: float) -> float:
    """kT/q in volts."""
    return BOLTZMANN_J_PER_K * temperature_k / ELEMENTARY_CHARGE_C


def responsivity_quantum_limit(wavelength_nm: float) -> float:
    """Maximum responsivity (A/W) of an ideal photodiode at unity quantum efficiency."""
    return wavelength_nm / EV_NM
