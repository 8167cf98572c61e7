"""Fixture package root."""
