"""Reference implementations kept only as parity oracles for the tests."""
