"""RUBBoS benchmark workload: interactions, mixes, workload specs."""
