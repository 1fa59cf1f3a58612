"""Native log format emitters for every monitored component."""
