"""Link-level simulator and closed-form BER calculator for surface-assisted
chirp-spread-spectrum links under same-spreading-factor interference."""

__version__ = "0.1.0"
