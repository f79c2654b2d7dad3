"""Golden generator outputs: the exact matchings of every family, pinned.

Each key is a generator in ``gemkit.generators`` and its arguments; each
value is the SHA-256 of ``json.dumps(g.matchings)`` for the graph it
returns.  Generated gems are written to files and compared across
versions, so a rewrite of a constructor has to reproduce them byte for
byte.  A mismatch here means a family now builds a different graph, not
that the pins need refreshing.

A few gems were re-pinned when their construction rule changed: the two
(4,6,12) catalog entries when they became the first hits of a direct
order-24 search instead of double covers of an order-12 gem, the two fixed
sphere entries when they became first search hits instead of a prism and a
hand-written literal, ``rp2_sum_gem(2)`` when it dropped its fixed matching
for the closed form of every other n, and the five orientable search entries
when bipartite searches kept to the parity normal form.  ``PREVIOUS`` keeps
each old matching and checks that the new gem is the same one, relabeled.
"""

import hashlib
import json

import pytest

from gemkit import generators
from gemkit.core import ColoredGraph, isomorphic

GOLDEN = {
    ('rp2_sum_gem', 1): "21744bbd2a45e10be51a5c435b56ed562f742f88c4b53252b13fe8c3bc5c9e6c",
    ('rp2_sum_gem', 2): "9569b789f6d4bec5cc7cbbedc3c42511e76ab816990e73909e984f50e8beb815",
    ('rp2_sum_gem', 3): "2bc6089850e9a9e59fd99cb9955b4fa9ff581b61e9be2509dcb15cecafbebc41",
    ('rp2_sum_gem', 4): "9aba2e01befe33b6672e7a62954d23e177234694638bb57fb329e8ceb6e96f59",
    ('rp2_sum_gem', 5): "8b13a2ae715928bfda138677d57d2c0b64627dd4d2f1b309702b44d240ea7d3e",
    ('rp2_sum_gem', 6): "a503bf7aa20e6fc96cff467fe0a793e69a877e34571fbb5babdcd855916c54ad",
    ('rp2_sum_gem', 7): "78a6781fe4db1447bd8b798e284fdac731c121e53898cf31362b4b18bbec7a74",
    ('rp2_sum_gem', 8): "11c7a78a261309a62c4980aa7869f875bf5721adefd4abdce6fa910dc561656c",
    ('rp2_sum_gem', 9): "455d81440ef2b3b2e47beb139b9f46a48926464d0045cc5826c9d4d69db026c0",
    ('rp2_sum_gem', 10): "24f835e2e063c904167537ec6918842995a073e508bf53bc91477eac74084aba",
    ('rp2_sum_gem', 11): "048c86a1eda872287384fb1cc8bdd5d6b1445267c623d65d47c86353c469c5ae",
    ('rp2_sum_gem', 12): "4cb7f7da5eaf5f63739708a6962e8bc010e4f6474337145cf086e1a07779417b",
    ('rp2_sum_gem', 13): "9e6c1d3510119c257cc05d422c3bb0b9384519fdcd416808b15fb9c900017373",
    ('rp2_sum_gem', 14): "dd01bc098230fbdd0c782a5c8ec8cbc6ef39c1d905fc89019e732f3075b8838b",
    ('rp2_sum_gem', 15): "d73f9480da411dbb19a846918f58e1926335a650e68a67e293864fb0be5d6f13",
    ('rp2_sum_gem', 16): "8e121d36ada064f76778f8c515e55b0915499ce577a7a9a0e2a49f9eea7d04ac",
    ('rp2_sum_gem', 17): "6d62607f696559562a1e5742fdab78296e4f72074a182910d88ee5d6536f5899",
    ('rp2_sum_gem', 18): "f34e8773e83176abe224334ffa8f8bc7aa47b1f7db2a86fc1542cdf72b127470",
    ('rp2_sum_gem', 19): "372c268dce1f5d4364aa9526749913128b04b37730c20536bc6cb32a52ea138c",
    ('rp2_sum_gem', 20): "fc4523ddb1931561ca6b6022726a7210c03401e5fb6706eb13014a912e56a47c",
    ('rp2_sum_gem', 21): "d3fc5b2e923c0c4795e7ab1f98ac5e6b3ebf112be21542f47f65f2f7d443e024",
    ('rp2_sum_gem', 22): "c8552aef68edb0a0c590a211247849894d5f99d8af9fdaf54bf47bf6d785f1d6",
    ('rp2_sum_gem', 23): "7ee6ab25aa3ecbfa4a743bca3ff87c2aded73fa45d553bd70ec406bf3aa17985",
    ('rp2_sum_gem', 24): "98ac98caee5d3a3cd1518e372a493a88c4a7e1976daebd50d759989170d5756b",
    ('rp2_sum_gem', 25): "a15871d9262be7dd8ba6ac8b1faa0e1ec2ec6ceb98b939e624236934c80c5144",
    ('rp2_sum_gem', 26): "03c4a544469b085c4839ab5a1bd9dbf64dc9dfde31ce2e03a9e8db6a6fcd06ca",
    ('rp2_sum_gem', 27): "41fe8d65d3e839f91cc25159b695237f402bd5b8a38f46e42c2d67f237c611f5",
    ('rp2_sum_gem', 28): "bc103a1baf02e6d6278e2114a56ea1540757e4d9c0ad85969a48cd02dd5be1ff",
    ('rp2_sum_gem', 29): "c5b8b037366779a82aef36700ec2d3ff2a479e9785d749ac729a51a8cbbad902",
    ('rp2_sum_gem', 30): "1bdce0213fe74a3dd51b194017ba5a6ffc39a5f17d6209399acc123f6c804361",
    ('rp2_sum_gem', 31): "83267c7fafbcd2e0dabed1b42c0609ea28331bd08373c927c9015395529fe02d",
    ('rp2_sum_gem', 32): "936ddc308e539575f85bd95434a7c050f8680de1a9539adc6c39e978ab82eb08",
    ('rp2_sum_gem', 33): "2460b1c8a4b975744b5be6e0a0d17892c4c59e6271eae8fca26e87fecebbabdc",
    ('rp2_sum_gem', 34): "9ba6397529ab362ba742c0c59abf1fb3f8afeefd7a1cc962e5149437f87670d7",
    ('rp2_sum_gem', 35): "c673feee88c2f66d71ece8c7ffc88d3b3eb67dbf5f5db3a0e39d96fd5b5c84d9",
    ('rp2_sum_gem', 36): "f150e9a60667962889b5331e31353e97fb855c67aa550e0972954a524dd42c87",
    ('rp2_sum_gem', 37): "85c32d2f3a1b457db56f91467ad15e1cb0b313be495b9e6b7278b7f193c258b0",
    ('rp2_sum_gem', 38): "518b60c7ab165aeade4d7f057b02fcec0b503674e09b1e54d044d4eb2b5bf5e5",
    ('rp2_sum_gem', 39): "82bc8a929b73635f78f990e384f20b39a2af7f2c7b9a33cc83dcbb291b4f9f2d",
    ('rp2_sum_gem', 40): "ba192dd3ce2717eae4c3a6e36bceea660fab214f54352f87e69f4c40c88cb450",
    ('rp2_sum_gem', 70): "efaff246e65bc58b0ba7bf4c086aa257464b7396ffdd54fd33306aa54bef9df3",
    ('rp2_sum_gem', 200): "b7c030ae896891d412c52581590bd19880a6f174724036e36c86d99ae5976ec5",
    ('torus_sum_gem', 1): "2296f914336468900a2a601f398ffd00c049cfc4375e1229ebaef446b0323ab7",
    ('torus_sum_gem', 2): "215cd54cbf03e952f8edabc906abcd9e2cff48129f2da3d5b84164068b0097a7",
    ('torus_sum_gem', 3): "ae0c47f7379711dc617816711f47119ddaa03a86b7ed82afa51247cd56ec2e35",
    ('torus_sum_gem', 4): "164974b518c9de330e548db1f8be0982af767eaa072e327f7f468c5f7055f68f",
    ('torus_sum_gem', 5): "8bd828f2d75fa16a3a3a5fefe5587f8e03dd85e58c980b58c427aed182494b87",
    ('torus_sum_gem', 6): "e9741d95c7095e1ba27314b3b01e686ef908b1643815155a3849a24d1b711f5f",
    ('torus_sum_gem', 7): "9fd920a1646a6ce3df38fb51f69c54186f3a0de98f57e1d68bc00733a1e66918",
    ('torus_sum_gem', 8): "d04f1568033e4e39750bb84622f9321880ad5381fa5835a65445aebbb778a1f2",
    ('torus_sum_gem', 9): "ea5d82e1ec0d0cf8dfba3c04dba9cef7aae1528d20a85acbcb004a14cc17555e",
    ('torus_sum_gem', 10): "f219f59ed3cabd4b330741b5a410508c406c346b8c7b495d925efb414a65dd24",
    ('torus_sum_gem', 11): "666386cab7a7ac252404c20909d43a37c0be4e12f7911f878fcbab183779385e",
    ('torus_sum_gem', 12): "8ccc67909f7a940fbd3dd383b3eaddb214dfb9536ef28fd6d385788083fde168",
    ('torus_sum_gem', 13): "6d75ea22ea1668690fde39b33d37fb9978311d6ff90af5cce04d7aa6aef94d39",
    ('torus_sum_gem', 14): "37c889ad0ba8515f98b9ac08d61fa614933a96348762354028e7d9781fa14c11",
    ('torus_sum_gem', 15): "5bf0be3797100b173648359c9cd5e88401504c0fb1422a54a4fb5035cf75cf5e",
    ('torus_sum_gem', 16): "363c796dfa79f37818de75bca267e6602c3c858338238c6055fcd70424ed77f6",
    ('torus_sum_gem', 17): "0b025209450241696b13b74aeccfa511ac3a9e4ea1baddbdc2934dbe707a50f7",
    ('torus_sum_gem', 18): "d825131be35100d1c931b43ba0910f68e9e29afde192de6a170d179f6b4f3070",
    ('torus_sum_gem', 19): "ec3cc7482cb4ff12adcca3fdf885b550a714886fd90ce51a6dd2c8947303094e",
    ('torus_sum_gem', 20): "68751428c55665363af11215fb785a68140fd4777cb08fb7fd85f322d2db0248",
    ('torus_sum_gem', 21): "82ff328f76c420be70cb5ca7c0a67232dedb7f6a5179e9b666bc4f4978fa0e17",
    ('torus_sum_gem', 22): "96a7e5e8b251e961ef74a2291ef53c95341de28faaad6472f68ddd0ea4fc66a4",
    ('torus_sum_gem', 23): "9bbaecfbc4acfcdd523391057ceaad4cf8065c14591df6dbb331dea5ee5d619c",
    ('torus_sum_gem', 24): "1f380eda49fea7da0b08b1364b605224d99bf89dfbe758fefd0e9838174d0387",
    ('torus_sum_gem', 25): "a45f8cdee62841f10cc81b81b210d45920f919facf7fd634976ed88137fc5f10",
    ('torus_sum_gem', 26): "62a1ff22b6fdd4ef530d31c4292e3814b28a6f33c6c66b5628e90609b4439f28",
    ('torus_sum_gem', 27): "7ab860ba1247c5d96629d7fe0bffe9a89067bc451a4f81a7177270d31e490d1b",
    ('torus_sum_gem', 28): "48ea6ef692e0d8ca8cadca4f231bee8f00e4f31e9bf87894a8664b1ad7e42f73",
    ('torus_sum_gem', 29): "308301ac00f96b4977e625319db04e0c66375af6bcd7f5ceb90ba97cabeb3191",
    ('torus_sum_gem', 30): "f104949aa2aa04a13d48ce4837e84eab58cf887af98b981d5af7d7ecba8ca598",
    ('torus_sum_gem', 31): "bf874104e5ba67b4b0442e62602eac62655eb3790b98b0567f878179a684b2d0",
    ('torus_sum_gem', 32): "542ad9f6b90bad91c69b3d042b23ad7af759ca8c8b5be78c6df42df3c478117a",
    ('torus_sum_gem', 33): "c18691d314486b77b7f2d3679db82cab8895ec0ef04496f211d558a0b0b56824",
    ('torus_sum_gem', 34): "cfc2316175a620831f22ae1d8de64bffef02010bc032651d9136206751fc2c74",
    ('torus_sum_gem', 35): "399495036d34033561e66066587db86b680d92fbbca737f0dfd99baf74c5abdb",
    ('torus_sum_gem', 36): "e0bd0f318d32a27649d9d6c267f94b66da23523f4ed939389b4488fe9a1fd6ab",
    ('torus_sum_gem', 37): "5f5f308a5a8129f76b440634ecf3b15988bd05ef0b0d4582ff41e2aafe097a51",
    ('torus_sum_gem', 38): "ac1c2059f2267bb4069f403bc40322b1bf9a000b6be2e57dd595378f5565c70c",
    ('torus_sum_gem', 39): "dfa470a4a400cb7e292530527db2b0a6c4c9fcbff52588f2419bce8030648115",
    ('torus_sum_gem', 40): "0dd94d326e9a5eb468dffa41760445a3c7dc0f328454814c94787aa44ac1bf21",
    ('torus_sum_gem', 70): "90d43eabd520508c6e3a548c050aed41b9f64a1f84f3e3c49f964cb5c591e018",
    ('torus_sum_gem', 200): "8debd42047484ac67657087b7ac86d8544703edef185811aa4a95be58ac01d6a",
    ('catalog', 'rp2-4.4.4'): "21744bbd2a45e10be51a5c435b56ed562f742f88c4b53252b13fe8c3bc5c9e6c",
    ('catalog', 'rp2-4.4.2p'): "6815c4ae8a23bad6c79079f2430acb43ed2bb8c65ba77563584b86f7e46ceac9",
    ('catalog', 's2-4.4.4'): "238ec184857a0fa4517968ba58d2b235ccf6dc465d535aee8cbda5f17281697d",
    ('catalog', 's2-4.4.p'): "2e84871de3128af5f6cd2e943daf0efc97d8d0a00d36614cbc12b9291b01759e",
    ('catalog', 's2-6.6.4'): "34840a37339caa0e3750b5561c2d47f555fb200c4ebd0bf083f55ee1af900450",
    ('catalog', 'torus-6.6.6'): "8dd326dfd1b315793d3a0421f5762685c96e3f204d74b79c2c77a536f1805096",
    ('catalog', 'torus-4.8.8'): "5d1d94e9ac3abe8585ddadedc10f2a018675decc2d0c6c840fec6bf05d3abb7d",
    ('catalog', 'torus-4.6.12'): "3bbe8569a49cee558ddef0ebcb943ae8b9b6c6d05ba1d3752fd8d58a0eadd66f",
    ('catalog', 'klein-6.6.6'): "104e82cb86d8341921ad5b16c8c83935898e54491b6ce71181eb13a5c2fcab41",
    ('catalog', 'klein-4.8.8'): "c37a2e75840d45177c6177a724778cd0eb2af2fac52ed654b376a3bd12a71fd9",
    ('catalog', 'klein-4.6.12'): "ab715d519add962b2b0483d3a7ae56a495440a1b78da5843b2bd37de9ffc5eae",
    ('catalog', 'rp2-4.4.2p', 2): "1d3d0a3489c0302c632b7dc40714d0fdddeb7100f228c2a0c0f6932126267b1c",
    ('catalog', 'rp2-4.4.2p', 4): "6815c4ae8a23bad6c79079f2430acb43ed2bb8c65ba77563584b86f7e46ceac9",
    ('catalog', 'rp2-4.4.2p', 6): "f43f6620418a8dcf906b8a68e1a450e98de5ffa5d0a44cf00294c00a79f3bb62",
    ('catalog', 'rp2-4.4.2p', 8): "c0a8c146b2033981017aab2a77727bb4695f74fe3b0a0aed541855af6683ec1a",
    ('catalog', 'rp2-4.4.2p', 10): "8b0a9cbe0b728e0a5aa7529ccfeafa732244166f7b50dcdb3acc4eca5f7970b2",
    ('catalog', 's2-4.4.p', 4): "dd493a85cbde4e3e4843d7087ebeaab30da2052a786fd62f88bd1b172f933bc9",
    ('catalog', 's2-4.4.p', 6): "2e84871de3128af5f6cd2e943daf0efc97d8d0a00d36614cbc12b9291b01759e",
    ('catalog', 's2-4.4.p', 8): "ea1ae8c73cc33170bfce0ffe8c3c7511791d742ef80338d86afe8b77b9670a01",
    ('catalog', 's2-4.4.p', 10): "2f85648e59334e062dc50edc0d3b6f64bbfadfbd055183dab3e191e34f18a6d3",
    ('catalog', 's2-4.4.p', 12): "7d41a4547360b872a056dd1bfe18582a3de342178cf0844ca7ae870d4fc960bb",
    ('sphere_times_circle_gem', 3, False): "5a7e15b8e664dd5cf6fdc1ffac75f60ad873ed466638c5ea2e57f488059c026c",
    ('sphere_times_circle_gem', 3, True): "42f31f4a2960a65fb1dcc4e0d902792d7747146f950fedb8766e3f9a5888a3ab",
    ('sphere_times_circle_gem', 4, False): "195b592035dd774e3abe470e555236ddd2d8c7e95b7e35749272e49d22aa1b6c",
    ('sphere_times_circle_gem', 4, True): "bdb7245b4d854dd3d85df8198f36ac5bd50fbe3ec4178bb2379af53f36b47e67",
    ('sphere_times_circle_gem', 5, False): "e54a76618f9b8b1964d3432293acd594714efa9affe97af1faf6a6412f7756d9",
    ('sphere_times_circle_gem', 5, True): "92f4d11218cc28eb4ee2f001134d87308c60577399b102a7c86d5d35f29b8c9c",
    ('sphere_times_circle_gem', 6, False): "4719dbcb180cc71ccff68191efd9bbac3079e8b882b3948d6c813940542fbac0",
    ('sphere_times_circle_gem', 6, True): "4bc654d74421b548e10b361e6e26f7f92abf725b0c9c2938b6825e653a0205db",
    ('lens_gem', 1, 0, 2): "71c1d35802eb0cbc1d32f2d1b536aeafb98501023cabb20c16fdeae6264d6747",
    ('lens_gem', 2, 1, 2): "3114c0c5b09cf0759b4087a8c85b525564cdb3d2e9291ae32f32fd7f7f5df3a7",
    ('lens_gem', 3, 1, 2): "2fd956e07c30068f9e64431ec7813f69ec930d8912209004e339c5f9edcfd0fe",
    ('lens_gem', 5, 2, 2): "bf039163375889b9785fbaa892f9b42bcf76dd3ffa0b8402ae53e000eca34154",
    ('lens_gem', 7, 2, 4): "356b155571d4ed1c3250210f63ffe8d835961ae7ebea7eda0fbdf83905040795",
    ('lens_gem', 4, 0, 4): "986d144a70d79a90b1656887fcaa77713339dfc0fd0666cce9c0e8bd8ed27ec7",
    ('lens_gem', 6, 1, 6): "a9897bb232419dc35212f3f875579d511f9c7be9e9e839ed541bb006a59b5cdb",
    ('standard_sphere', 1): "1482bd7cf032cccbb31a9af5b169d7b0cf648317de5bc7c21ba3abb06dee68ba",
    ('standard_sphere', 2): "9b3c60fb9afba1cca51e6d01ca94048a61938932de1f7442ce7589717f2086d7",
    ('standard_sphere', 3): "71004f926465089deda2bf13ba0286684ff9e5b51ba2d502b9b72c580e8ac62e",
}


# The matchings of each re-pinned gem as earlier rules built them, oldest
# first, each with the SHA-256 it was pinned at and the color map of the
# witness that carries it onto the new gem.  The (4,6,12) entries came first
# from the double-cover detour, s2-4.4.4 from the p = 4 prism, s2-6.6.4 from
# a hand-written literal with its squares on colors {1,2} (the search puts
# them on {0,1}), and rp2_sum_gem(2) from the order-6 Klein bottle gem's
# third matching.  The five orientable search entries were then the first
# hits of a search that did not keep to the parity normal form (every edge
# joins an even and an odd vertex); each is the same gem relabeled with
# colors fixed.
PREVIOUS = {
    ("catalog", "torus-4.6.12"): (
        (
            "b80ee1c1a7bb3a906826c12bf31dfff29fca1b9e3d5dcaa312a5449522915acc",
            [
                [13, 12, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 1, 0, 15, 14, 17, 16, 19, 18, 21, 20, 23, 22],
                [3, 14, 13, 0, 6, 7, 4, 5, 10, 11, 8, 9, 15, 2, 1, 12, 18, 19, 16, 17, 22, 23, 20, 21],
                [4, 8, 7, 11, 0, 21, 10, 2, 1, 17, 6, 3, 16, 20, 19, 23, 12, 9, 22, 14, 13, 5, 18, 15],
            ],
            (0, 1, 2),
        ),
        (
            "ced0f8b707dae9e41a88b687773e0b1b17f442823dbbe07722f621a7fc99f65a",
            [
                [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14, 17, 16, 19, 18, 21, 20, 23, 22],
                [3, 2, 1, 0, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 18, 19, 16, 17, 22, 23, 20, 21],
                [4, 8, 7, 12, 0, 9, 13, 2, 1, 5, 16, 20, 3, 6, 19, 23, 10, 21, 22, 14, 11, 17, 18, 15],
            ],
            (0, 1, 2),
        ),
    ),
    ("catalog", "klein-4.6.12"): (
        (
            "8aa54724a7c5f867a70de82ab57bb3e004b3a4dcea7c69cef2b98e6f146ed752",
            [
                [1, 0, 15, 14, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 3, 2, 17, 16, 19, 18, 21, 20, 23, 22],
                [3, 14, 13, 0, 6, 7, 4, 5, 10, 11, 8, 9, 15, 2, 1, 12, 18, 19, 16, 17, 22, 23, 20, 21],
                [2, 4, 0, 17, 1, 15, 8, 11, 6, 10, 9, 7, 14, 16, 12, 5, 13, 3, 20, 23, 18, 22, 21, 19],
            ],
            (0, 1, 2),
        ),
    ),
    ("catalog", "s2-4.4.4"): (
        ("dd493a85cbde4e3e4843d7087ebeaab30da2052a786fd62f88bd1b172f933bc9", [[1, 0, 3, 2, 5, 4, 7, 6], [4, 5, 6, 7, 0, 1, 2, 3], [3, 2, 1, 0, 7, 6, 5, 4]], (0, 1, 2)),
        ("18e5ffa7d4ae8a161c01ed588baf00477a9e5e1099dfa047c14fa7b4cbb1ae97", [[1, 0, 3, 2, 5, 4, 7, 6], [3, 2, 1, 0, 6, 7, 4, 5], [4, 5, 7, 6, 0, 1, 3, 2]], (0, 1, 2)),
    ),
    ("catalog", "s2-6.6.4"): (
        (
            "cdb77b92f16025e18161f4dcb74f618e78cefef7cb6504e666b73f4b4aea01f6",
            [
                [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14, 17, 16, 23, 20, 19, 22, 21, 18],
                [5, 2, 1, 4, 3, 0, 17, 18, 19, 10, 9, 20, 21, 14, 13, 22, 23, 6, 7, 8, 11, 12, 15, 16],
                [17, 14, 13, 10, 9, 6, 5, 8, 7, 4, 3, 12, 11, 2, 1, 16, 15, 0, 19, 18, 21, 20, 23, 22],
            ],
            (2, 0, 1),
        ),
        (
            "30902c209311c98a895e30be47c1eac8a6f6dea18ad9a9acb861316bcb779401",
            [
                [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14, 17, 16, 19, 18, 21, 20, 23, 22],
                [3, 2, 1, 0, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 18, 19, 16, 17, 22, 23, 20, 21],
                [4, 8, 12, 16, 0, 9, 18, 20, 1, 5, 14, 22, 2, 17, 10, 23, 3, 13, 6, 21, 7, 19, 11, 15],
            ],
            (0, 1, 2),
        ),
    ),
    ("catalog", "torus-6.6.6"): (
        (
            "fac648fca07c539471d71f69616f1a888e45fe6f84bd183b03a972e12f2f1fa1",
            [
                [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10],
                [4, 2, 1, 5, 0, 3, 8, 10, 6, 11, 7, 9],
                [3, 6, 7, 0, 9, 11, 1, 2, 10, 4, 8, 5],
            ],
            (0, 1, 2),
        ),
    ),
    ("catalog", "torus-4.8.8"): (
        (
            "4e646a6c7c4c65ddb817933a7e17d1d62d66e2af148c5a39bb262e9abd4f0490",
            [
                [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14],
                [3, 2, 1, 0, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13],
                [4, 6, 8, 10, 0, 12, 1, 13, 2, 15, 3, 14, 5, 7, 11, 9],
            ],
            (0, 1, 2),
        ),
    ),
    ("rp2_sum_gem", 2): (
        ("b31d225f72d43e968571c985ae9a15604e3fe15ff6336b5529acd25dec4b4c4d", [[1, 0, 3, 2, 5, 4], [5, 2, 1, 4, 3, 0], [3, 5, 4, 0, 2, 1]], (0, 1, 2)),
    ),
}


def _digest(matchings) -> str:
    return hashlib.sha256(json.dumps(matchings).encode()).hexdigest()


def _assert_relabels_the_previous_gems(key):
    name, *args = key
    new = getattr(generators, name)(*args)
    for digest, matchings, color_map in PREVIOUS[key]:
        assert _digest(matchings) == digest
        old = ColoredGraph(matchings)
        mode = "color-fixed" if color_map == (0, 1, 2) else "color-permuting"
        witness = isomorphic(old, new, mode)
        assert witness is not None
        assert witness.color_map == color_map
        assert witness.valid_between(old, new)


@pytest.mark.parametrize("name", [key[1] for key in PREVIOUS if key[0] == "catalog"])
def test_repinned_catalog_entries_relabel_the_previous_gems(name):
    _assert_relabels_the_previous_gems(("catalog", name))


def test_rp2_sum_n2_relabels_the_previous_fixed_matchings():
    _assert_relabels_the_previous_gems(("rp2_sum_gem", 2))


@pytest.mark.parametrize(
    "key", GOLDEN, ids=[f"{k[0]}{k[1:]}".replace(",)", ")") for k in GOLDEN]
)
def test_generator_output_pinned(key):
    name, *args = key
    g = getattr(generators, name)(*args)
    assert _digest(g.matchings) == GOLDEN[key]
