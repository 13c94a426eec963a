package main

// pinnedSeed is the seed whose simulated results are pinned below.
const pinnedSeed = 1

// pinnedDigests holds, per workload, the SHA-256 over every simulated
// scalar and rendered table of repetition 0 at pinnedSeed. A run at that
// seed whose digest differs reports sim_digest_changed, so a change meant
// only to speed the simulator up cannot silently alter what it simulates.
// A change that means to alter simulated results updates the pin with the
// digest the run prints. live_loopback simulates nothing and has no pin.
var pinnedDigests = map[string]string{
	"link_bulk":          "63f5b506a6e5ecad6a5731dafc5686f8a5783babd185a20dc6705c0cb5cc4474",
	"link_engines_burst": "bb4372a7d2b480d1055d387034cebf89f06b65fe0dddebbc968df439224e0a52",
	"const1024_shards1":  "5c20deedfe7c1ed259d2c3b6baeccff1ba0cf8ec39cfff9a9fe80f13277bf3f7",
	"const1024_shards2":  "5c20deedfe7c1ed259d2c3b6baeccff1ba0cf8ec39cfff9a9fe80f13277bf3f7",
	"tables":             "4564745b1f7185352f817b3b481985033e823fb5912cfcfbc5121dc5fc3b7688",
}
