// Golden pruning record of the joint explorer: for each of the 12 workloads
// at workloads::Scale::kSmall, interleaved with InterleaveProportional and
// explored over JointSpace::Default(), the explore.joint_* counters and the
// JointFrontCsv of the front. Recorded from the per-pair simulation path
// that predates per-geometry L1 simulation over run-collapsed streams, so
// it pins the same pruning decisions, not only the same fronts. Used by
// tests/joint_test.cpp (JointGolden).
#pragma once

namespace joint_golden {

inline constexpr const char kSmallDefaultSpace[] = R"golden(== adpcm
explore.joint_space 1296
explore.joint_valid 1296
explore.joint_evaluated 179
explore.joint_pruned 1117
explore.joint_pairs 144
explore.joint_pairs_evaluated 20
explore.joint_pairs_pruned 124
explore.joint_pairs_threshold 105
explore.joint_seeds 11
explore.joint_front 8
key,l1i_depth,l1i_assoc,l1d_depth,l1d_assoc,l2_depth,l2_assoc,line_words,l2_line_words,misses,l2_misses,amat_ns,energy_nj,size_words
i4x16x1:d4x16x1:u8x256x2,16,1,16,1,256,2,4,8,211,36,1.6254030033711309,2658.8187542849328,4224
i4x16x1:d4x16x2:u8x256x2,16,1,16,2,256,2,4,8,143,36,1.6943518234753294,2645.2833730045004,4288
i4x16x1:d4x32x2:u8x256x2,16,1,32,2,256,2,4,8,106,36,1.7974563285320255,2658.81458577066,4416
i4x16x1:d4x64x1:u8x256x2,16,1,64,1,256,2,4,8,106,36,1.8174563285320258,2646.8002892725099,4416
i4x16x2:d4x16x2:u8x256x2,16,2,16,2,256,2,4,8,139,36,1.6925252834814588,3334.6124750952054,4352
i4x32x1:d4x16x2:u8x256x2,32,1,16,2,256,2,4,8,139,36,1.7125252834814588,3144.7799740126193,4352
i4x32x1:d4x32x2:u8x256x2,32,1,32,2,256,2,4,8,102,36,1.7956297885381549,3158.3111867787788,4480
i4x32x1:d4x64x1:u8x256x2,32,1,64,1,256,2,4,8,102,36,1.8156297885381552,3146.2968902806288,4480
== bcnt
explore.joint_space 1296
explore.joint_valid 1296
explore.joint_evaluated 126
explore.joint_pruned 1170
explore.joint_pairs 144
explore.joint_pairs_evaluated 14
explore.joint_pairs_pruned 130
explore.joint_pairs_threshold 108
explore.joint_seeds 11
explore.joint_front 5
key,l1i_depth,l1i_assoc,l1d_depth,l1d_assoc,l2_depth,l2_assoc,line_words,l2_line_words,misses,l2_misses,amat_ns,energy_nj,size_words
i4x16x1:d4x16x2:u8x256x2,16,1,16,2,256,2,4,8,458,46,1.5787993710810964,9957.8497507503726,4288
i4x16x1:d4x32x2:u8x256x2,16,1,32,2,256,2,4,8,298,46,1.6807350016101839,10283.521773396924,4416
i4x16x1:d4x64x1:u8x256x2,16,1,64,1,256,2,4,8,446,46,1.7174445433707781,10283.087946790003,4416
i4x16x1:d4x64x2:u8x256x2,16,1,64,2,256,2,4,8,138,46,1.7826706321392713,10797.358317204891,4672
i4x16x1:d4x128x1:u8x256x2,16,1,128,1,256,2,4,8,138,46,1.8026706321392716,10671.071404497518,4672
== blit
explore.joint_space 1296
explore.joint_valid 1296
explore.joint_evaluated 108
explore.joint_pruned 1188
explore.joint_pairs 144
explore.joint_pairs_evaluated 12
explore.joint_pairs_pruned 132
explore.joint_pairs_threshold 104
explore.joint_seeds 11
explore.joint_front 4
key,l1i_depth,l1i_assoc,l1d_depth,l1d_assoc,l2_depth,l2_assoc,line_words,l2_line_words,misses,l2_misses,amat_ns,energy_nj,size_words
i4x16x1:d4x16x1:u8x256x2,16,1,16,1,256,2,4,8,817,47,1.8165028867679982,3912.9981984439833,4224
i4x16x1:d4x64x1:u8x256x2,16,1,64,1,256,2,4,8,253,47,1.8584682455520209,3795.0550764490299,4416
i4x16x1:d4x64x2:u8x256x2,16,1,64,2,256,2,4,8,141,47,1.9191422175091315,4049.956533893183,4672
i4x16x1:d4x128x1:u8x256x2,16,1,128,1,256,2,4,8,141,47,1.9391422175091317,3992.9237346059817,4672
== compress
explore.joint_space 1296
explore.joint_valid 1296
explore.joint_evaluated 192
explore.joint_pruned 1104
explore.joint_pairs 144
explore.joint_pairs_evaluated 35
explore.joint_pairs_pruned 109
explore.joint_pairs_threshold 94
explore.joint_seeds 11
explore.joint_front 16
key,l1i_depth,l1i_assoc,l1d_depth,l1d_assoc,l2_depth,l2_assoc,line_words,l2_line_words,misses,l2_misses,amat_ns,energy_nj,size_words
i4x16x1:d4x16x1:u8x256x4,16,1,16,1,256,4,4,8,1390,298,3.0995471698113208,6627.4844890816912,8320
i4x16x1:d4x16x1:u8x1024x2,16,1,16,1,1024,2,4,8,1388,296,3.0942138364779876,7052.3328962305823,16512
i4x16x1:d4x16x2:u8x256x4,16,1,16,2,256,4,4,8,1336,298,3.1763018867924528,6661.4822807639302,8384
i4x16x1:d4x16x2:u8x1024x2,16,1,16,2,1024,2,4,8,1334,296,3.1708176100628931,7064.332689757106,16576
i4x16x1:d4x32x2:u8x256x4,16,1,32,2,256,4,4,8,1248,298,3.2584206848357793,6657.9951946213405,8512
i4x16x1:d4x32x2:u8x1024x2,16,1,32,2,1024,2,4,8,1246,296,3.2526904262753318,7024.9970140274272,16704
i4x16x1:d4x32x4:u8x256x4,16,1,32,4,256,4,4,8,1096,298,3.3929895178197063,6673.65405066734,8768
i4x16x1:d4x32x4:u8x512x2,16,1,32,4,512,2,4,8,1098,300,3.3969140461215934,6668.1838779831996,8768
i4x16x1:d4x64x2:u8x256x4,16,1,64,2,256,4,4,8,1119,298,3.3228902865129282,6647.2348154301244,8768
i4x16x1:d4x64x2:u8x1024x2,16,1,64,2,1024,2,4,8,1117,296,3.3167994409503843,6961.685861464226,16960
i4x16x1:d4x64x4:u8x256x4,16,1,64,4,256,4,4,8,920,298,3.437227113906359,6666.0218006036903,9280
i4x16x1:d4x64x4:u8x1024x2,16,1,64,4,1024,2,4,8,918,296,3.4305800139762406,6899.4061497306229,17472
i4x16x1:d4x128x2:u8x256x4,16,1,128,2,256,4,4,8,989,298,3.386929419986024,6693.1768093097653,9280
i4x16x1:d4x128x2:u8x1024x2,16,1,128,2,1024,2,4,8,987,296,3.3804751921733054,6954.6697116356654,17472
i4x16x1:d4x128x4:u8x256x4,16,1,128,4,256,4,4,8,794,298,3.5029881201956674,6799.1967264424275,10304
i4x16x1:d4x128x4:u8x1024x2,16,1,128,4,1024,2,4,8,792,296,3.4959888190076871,6981.2524132060262,18496
== crc
explore.joint_space 1296
explore.joint_valid 1296
explore.joint_evaluated 123
explore.joint_pruned 1173
explore.joint_pairs 144
explore.joint_pairs_evaluated 14
explore.joint_pairs_pruned 130
explore.joint_pairs_threshold 104
explore.joint_seeds 11
explore.joint_front 6
key,l1i_depth,l1i_assoc,l1d_depth,l1d_assoc,l2_depth,l2_assoc,line_words,l2_line_words,misses,l2_misses,amat_ns,energy_nj,size_words
i4x16x1:d4x16x1:u8x256x2,16,1,16,1,256,2,4,8,1517,54,1.7366055401496856,7293.8496238458029,4224
i4x16x1:d4x16x2:u8x256x2,16,1,16,2,256,2,4,8,1063,54,1.7559233085845483,7101.6704846210587,4288
i4x16x1:d4x32x2:u8x256x2,16,1,32,2,256,2,4,8,393,54,1.7568548170677161,6733.9256080298583,4416
i4x16x1:d4x64x1:u8x256x2,16,1,64,1,256,2,4,8,368,54,1.7724119629066406,6661.0598993316398,4416
i4x16x1:d4x64x2:u8x256x2,16,1,64,2,256,2,4,8,161,54,1.8356251304529325,6811.0724554649023,4672
i4x16x1:d4x128x1:u8x256x2,16,1,128,1,256,2,4,8,161,54,1.8556251304529328,6758.2089065720229,4672
== des
explore.joint_space 1296
explore.joint_valid 1296
explore.joint_evaluated 117
explore.joint_pruned 1179
explore.joint_pairs 144
explore.joint_pairs_evaluated 13
explore.joint_pairs_pruned 131
explore.joint_pairs_threshold 112
explore.joint_seeds 11
explore.joint_front 4
key,l1i_depth,l1i_assoc,l1d_depth,l1d_assoc,l2_depth,l2_assoc,line_words,l2_line_words,misses,l2_misses,amat_ns,energy_nj,size_words
i4x16x1:d4x16x2:u8x256x2,16,1,16,2,256,2,4,8,594,32,1.5498903139382203,13487.694996086051,4288
i4x16x1:d4x32x1:u8x256x2,16,1,32,1,256,2,4,8,603,32,1.5706017480801624,13423.018737630826,4288
i4x16x1:d4x32x2:u8x256x2,16,1,32,2,256,2,4,8,95,32,1.6304452431794367,13341.041629358504,4416
i4x16x1:d4x64x1:u8x256x2,16,1,64,1,256,2,4,8,95,32,1.650445243179437,13267.954658994759,4416
== engine
explore.joint_space 1296
explore.joint_valid 1296
explore.joint_evaluated 153
explore.joint_pruned 1143
explore.joint_pairs 144
explore.joint_pairs_evaluated 17
explore.joint_pairs_pruned 127
explore.joint_pairs_threshold 94
explore.joint_seeds 11
explore.joint_front 7
key,l1i_depth,l1i_assoc,l1d_depth,l1d_assoc,l2_depth,l2_assoc,line_words,l2_line_words,misses,l2_misses,amat_ns,energy_nj,size_words
i4x16x1:d4x16x2:u8x256x2,16,1,16,2,256,2,4,8,1577,143,1.7175466725845376,14778.924123711107,4288
i4x16x1:d4x16x4:u8x256x2,16,1,16,4,256,2,4,8,949,143,1.8656328885683378,14661.930296701898,4416
i4x16x1:d4x32x2:u8x256x2,16,1,32,2,256,2,4,8,1283,143,1.8132430857998834,14799.926257882893,4416
i4x16x1:d4x32x4:u8x256x2,16,1,32,4,256,2,4,8,941,143,1.9849715664789591,15032.496027379219,4672
i4x16x1:d4x64x4:u8x256x2,16,1,64,4,256,2,4,8,557,143,2.0732281061887985,15243.274044678479,5184
i4x16x1:d4x128x2:u8x256x2,16,1,128,2,256,2,4,8,583,143,1.9953774029792783,15120.816720582017,5184
i4x16x1:d4x128x4:u8x256x2,16,1,128,4,256,2,4,8,429,143,2.1826469527587449,15885.823926598319,6208
== fir
explore.joint_space 1296
explore.joint_valid 1296
explore.joint_evaluated 135
explore.joint_pruned 1161
explore.joint_pairs 144
explore.joint_pairs_evaluated 15
explore.joint_pairs_pruned 129
explore.joint_pairs_threshold 101
explore.joint_seeds 11
explore.joint_front 3
key,l1i_depth,l1i_assoc,l1d_depth,l1d_assoc,l2_depth,l2_assoc,line_words,l2_line_words,misses,l2_misses,amat_ns,energy_nj,size_words
i4x16x1:d4x16x2:u8x256x2,16,1,16,2,256,2,4,8,475,73,1.4868951649832198,168341.43935016374,4288
i4x16x1:d4x64x2:u8x256x2,16,1,64,2,256,2,4,8,251,73,1.7255366304876534,181036.44056774923,4672
i4x16x1:d4x128x2:u8x256x2,16,1,128,2,256,2,4,8,219,73,1.8453425541311441,191631.9521309743,5184
== g3fax
explore.joint_space 1296
explore.joint_valid 1296
explore.joint_evaluated 126
explore.joint_pruned 1170
explore.joint_pairs 144
explore.joint_pairs_evaluated 14
explore.joint_pairs_pruned 130
explore.joint_pairs_threshold 98
explore.joint_seeds 11
explore.joint_front 7
key,l1i_depth,l1i_assoc,l1d_depth,l1d_assoc,l2_depth,l2_assoc,line_words,l2_line_words,misses,l2_misses,amat_ns,energy_nj,size_words
i4x16x1:d4x16x1:u8x256x2,16,1,16,1,256,2,4,8,715,145,1.4331256999064597,39480.226698342733,4224
i4x16x1:d4x16x2:u8x256x2,16,1,16,2,256,2,4,8,652,145,1.5314767532245102,41247.155714484164,4288
i4x16x1:d4x32x1:u8x256x2,16,1,32,1,256,2,4,8,685,145,1.5523404872007693,40776.067095571489,4288
i4x16x1:d4x64x2:u8x256x2,16,1,64,2,256,2,4,8,651,145,1.7714505794676538,45747.544773535934,4672
i4x16x1:d4x128x1:u8x256x2,16,1,128,1,256,2,4,8,627,145,1.790822409303102,45213.980994606623,4672
i4x16x1:d4x128x2:u8x256x2,16,1,128,2,256,2,4,8,468,145,1.886660781962944,49306.131338642488,5184
i4x16x1:d4x128x4:u8x256x2,16,1,128,4,256,2,4,8,434,145,2.0857708742298287,55536.387738065561,6208
== pocsag
explore.joint_space 1296
explore.joint_valid 1296
explore.joint_evaluated 144
explore.joint_pruned 1152
explore.joint_pairs 144
explore.joint_pairs_evaluated 16
explore.joint_pairs_pruned 128
explore.joint_pairs_threshold 101
explore.joint_seeds 11
explore.joint_front 4
key,l1i_depth,l1i_assoc,l1d_depth,l1d_assoc,l2_depth,l2_assoc,line_words,l2_line_words,misses,l2_misses,amat_ns,energy_nj,size_words
i4x16x1:d4x16x1:u8x256x2,16,1,16,1,256,2,4,8,923,125,1.4814660153986259,21837.734926836976,4224
i4x16x1:d4x16x2:u8x256x2,16,1,16,2,256,2,4,8,406,125,1.5559562877721667,21583.082240165895,4288
i4x16x1:d4x16x4:u8x256x2,16,1,16,4,256,2,4,8,373,125,1.7543280072853715,21834.195370272482,4416
i4x16x1:d4x32x2:u8x256x2,16,1,32,2,256,2,4,8,387,125,1.6750187929464357,21749.43846143999,4416
== qurt
explore.joint_space 1296
explore.joint_valid 1296
explore.joint_evaluated 99
explore.joint_pruned 1197
explore.joint_pairs 144
explore.joint_pairs_evaluated 11
explore.joint_pairs_pruned 133
explore.joint_pairs_threshold 124
explore.joint_seeds 11
explore.joint_front 1
key,l1i_depth,l1i_assoc,l1d_depth,l1d_assoc,l2_depth,l2_assoc,line_words,l2_line_words,misses,l2_misses,amat_ns,energy_nj,size_words
i4x16x1:d4x16x1:u8x256x2,16,1,16,1,256,2,4,8,597,199,1.7567328244274809,8587.9996761967268,4224
== ucbqsort
explore.joint_space 1296
explore.joint_valid 1296
explore.joint_evaluated 126
explore.joint_pruned 1170
explore.joint_pairs 144
explore.joint_pairs_evaluated 14
explore.joint_pairs_pruned 130
explore.joint_pairs_threshold 97
explore.joint_seeds 11
explore.joint_front 8
key,l1i_depth,l1i_assoc,l1d_depth,l1d_assoc,l2_depth,l2_assoc,line_words,l2_line_words,misses,l2_misses,amat_ns,energy_nj,size_words
i4x16x1:d4x16x1:u8x256x2,16,1,16,1,256,2,4,8,1490,77,1.5318959211721681,16110.832030437788,4224
i4x16x1:d4x16x2:u8x256x2,16,1,16,2,256,2,4,8,1089,77,1.6040597265251928,16834.830282698822,4288
i4x16x1:d4x32x1:u8x256x2,16,1,32,1,256,2,4,8,1151,77,1.6283635770691141,16596.375223190524,4288
i4x16x1:d4x32x2:u8x256x2,16,1,32,2,256,2,4,8,929,77,1.7129530154441053,17788.495408722287,4416
i4x16x1:d4x64x1:u8x256x2,16,1,64,1,256,2,4,8,902,77,1.731078757949172,17472.076311795598,4416
i4x16x1:d4x64x2:u8x256x2,16,1,64,2,256,2,4,8,251,77,1.7858883272379975,18754.535153129436,4672
i4x16x1:d4x128x1:u8x256x2,16,1,128,1,256,2,4,8,250,77,1.805818910293741,18454.786273537935,4672
i4x16x1:d4x128x2:u8x256x2,16,1,128,2,256,2,4,8,230,77,1.9044305714086049,20897.503302440477,5184
)golden";

}  // namespace joint_golden
