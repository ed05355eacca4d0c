// fsync and fdatasync are no-ops in the benchmark client.
//
// Journals, snapshots and fleet logs must stay inside the benchmark's
// checkout, which usually sits on a disk shared with other machines'
// work. There, fsync latency is set by the neighbours, not by this
// program: fleet-serve spent 10-40% of its timed phase waiting on it, and
// five identical fleet runs took 6.4-9.0 s on ext4 against 5.1-5.2 s on
// tmpfs. Defining both calls here, in the executable, makes every durable
// write in the linked libraries cost what it costs on tmpfs: the data still
// reaches the page cache, and recovery still reads it back, but no call
// waits for the disk. Real fsync latency is not part of what this
// benchmark measures.
extern "C" int fsync(int) { return 0; }
extern "C" int fdatasync(int) { return 0; }
