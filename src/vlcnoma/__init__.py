"""Dual-engine evaluation of power-domain NOMA over LED downlinks with mobile,
randomly oriented receivers: a Monte Carlo link simulator and a closed-form
engine that must agree with it."""

__version__ = "0.1.0"
