"""Byte-identical CLI output: sha256 digests of stdout.  The distance-0
digests were recorded before the table-driven dense core replaced
per-state digit decoding; the distance >= 1 digests before the
bidirectional search replaced the one-sided stack-tuple BFS; the
constructive-solver, `table`, `graphs` and remaining `verify` and
`conjecture` digests before the per-subcommand flags and the shared
goal test; the emit-exact digests before the integer-backed `QuadValue`,
the shared replay core and batched move output.

Each solve digest covers the concatenated stdout of one solve command
over a range of disc counts, for one model and one ordered peg pair.
Commands run in-process through `cli.run`, so the suite stays fast.
"""

import hashlib

import pytest

from hanoilab import oracle, verify
from hanoilab.cli import all_strongly_connected_graphs, run
from hanoilab.model import GRAPH_CLASSES
from hanoilab.recurrence import CYCLE_GRAPH, PAIR_ORDER

SOLVE_N_MAX = 6

SOLVE_DIGESTS = {
    ("1>2,2>3,3>1", 1, 2): "f99be5c83e3ff5db2f91e515aa38857ce33851c059c98fae31614821ae2ebced",
    ("1>2,2>3,3>1", 2, 1): "4ba797d914ae7268de67b74dd019b79b7620f826b95d44d44ea4e77829bf2bf2",
    ("1>2,2>3,3>1", 1, 3): "5bf2b6a9f9ac95c0e87e65fbb083fb30769f43cc521cc7aa12cb6e453c66a87a",
    ("1>2,2>3,3>1", 3, 1): "39d3e5f34bd85d7317213bb8c2a916b2ca6e2e17f55971f1277a88c2f512b5ea",
    ("1>2,2>3,3>1", 2, 3): "cdf2ae929bc970dda363f56dff908973d2523d226f9c9f772def757d3e01e1d0",
    ("1>2,2>3,3>1", 3, 2): "f8cb9cecffb287503e2f7aebbcb2e7d4c70ed5ee6e2c8d846420844c9e7818b3",
    ("1>3,2>1,3>2", 1, 2): "e82ea6806956f731f4672e8a78fe98f35998aa9abd42cf44573aeaebc7e1e893",
    ("1>3,2>1,3>2", 2, 1): "770e2db5d7c9ce382f094e21285940f53eaa1b86a139e6ab8805eb24bf32adf9",
    ("1>3,2>1,3>2", 1, 3): "279e82589c11b7a055e01923f0593ee82fe86c2707e788158181477fa18365ed",
    ("1>3,2>1,3>2", 3, 1): "d75062f8bb110159578f0d124ab6e7d4f11b1d96eb42aa2cc7ef9b8439e13dfe",
    ("1>3,2>1,3>2", 2, 3): "06907dcce32ea777217dec86fe917225f31567262956aacd7007e47627c08dc2",
    ("1>3,2>1,3>2", 3, 2): "2d6c2b401e533b657c0a981cbca194701ae2959b9c5d44836225347dfb69928a",
    ("1>2,1>3,2>1,3>1", 1, 2): "88d17f043fef5f8d587eac1347964872ed19ba881f6ab4853c1a19cdb653dff9",
    ("1>2,1>3,2>1,3>1", 2, 1): "b43b7731aa0e054261b211fa641c6129d3ecbc747044446c886a757204e81069",
    ("1>2,1>3,2>1,3>1", 1, 3): "67a00be558b59f7ad417b2bb8852004f80ecba302933705f52f7a6eb71c7f9e7",
    ("1>2,1>3,2>1,3>1", 3, 1): "c2a6e4cec5345406d202e79e5e2a93e82b201ae50cfce13f1224e6501e7e57e8",
    ("1>2,1>3,2>1,3>1", 2, 3): "bdf2c00138dfaffeeb867ff9f29f6d047e820b2f12d1096459e947b4d62d1a06",
    ("1>2,1>3,2>1,3>1", 3, 2): "0e4ef3b2091b866f1c142214113b81a9bab425df1da6bbc930b5127d0afd72e8",
    ("1>2,1>3,2>1,3>2", 1, 2): "2300646d6f5417dc35ba14854d5aa7c9bbe861449051d9ec2104bbe4743d1d67",
    ("1>2,1>3,2>1,3>2", 2, 1): "ef9cff71874e2589df889d50d95d20e05133ebd57a11b8316c5dbedf4cce90a9",
    ("1>2,1>3,2>1,3>2", 1, 3): "6689b86ace555d7bc7ff81927ebeb64f0ba0d676126899fb61b42d3cc82caef5",
    ("1>2,1>3,2>1,3>2", 3, 1): "e924c8cf6d84b3dbb691516f7e1e84a810eff45ec80327dedc902ebe395617bd",
    ("1>2,1>3,2>1,3>2", 2, 3): "1e2655ccdb82ddbd74b4737e995c7e2b2e4a75bb46e27adca3b3de46596f3fd8",
    ("1>2,1>3,2>1,3>2", 3, 2): "7be245643d299f59a7957320d258d09fd0684f82e373e37225e55529649f24a4",
    ("1>2,1>3,2>3,3>1", 1, 2): "26477bc225b19222e8554399ff3785d4e1e2289f316223260ad46b2618c90517",
    ("1>2,1>3,2>3,3>1", 2, 1): "9d27bd51cfcf2bbbbaffe18a6b5375835c11c5337460cd219e193d693dc5d79f",
    ("1>2,1>3,2>3,3>1", 1, 3): "d803d25a3b85829bac21ed43402db6b5370eaac2e4d8214e713cbafb94ad2273",
    ("1>2,1>3,2>3,3>1", 3, 1): "deff76846af23b6348f364fa87d1ec1d046b71a32ff320790bcacc72a23b18e6",
    ("1>2,1>3,2>3,3>1", 2, 3): "4b69ca08a2a52acabfd22c02fdfa12e797c228c4972241374772ddc227496256",
    ("1>2,1>3,2>3,3>1", 3, 2): "c90a927052a20a7cf061ba0ec9d10480b0250e90bd1f8afd1443a094527d739e",
    ("1>2,2>1,2>3,3>1", 1, 2): "39bd83c365716f2aa77da798db581ded74d4af04d31bb775bfcd1b058c2f9558",
    ("1>2,2>1,2>3,3>1", 2, 1): "c5d5285e64fdcfa4e59117aaa2d840c09c5eb573ab3b8ba433d3e2fe059c34f5",
    ("1>2,2>1,2>3,3>1", 1, 3): "0462d34229289acadd21f5cc3d2eb7336cd076d431c3ada858972080b46e26ec",
    ("1>2,2>1,2>3,3>1", 3, 1): "014d8355d707fb288b1e102f9382a0f5f9806d27cfa4fbf2011a44de4f5aa83b",
    ("1>2,2>1,2>3,3>1", 2, 3): "3e9d28f4e8bc5961b5d3144a39de0980f574ee4729dd8aaaea71d67155359e39",
    ("1>2,2>1,2>3,3>1", 3, 2): "d6c7264213038076b2db528fa516826bec92716260ed6539daeb959c0975d601",
    ("1>2,2>1,2>3,3>2", 1, 2): "e18cddd4d6c86cdc5a9877885405a348ab541c8ac30d6a97d186fcf48e25ad1c",
    ("1>2,2>1,2>3,3>2", 2, 1): "067ba71f21ed601a2267b254bdddd3544465c7f05449f3b0d543e692586cb65d",
    ("1>2,2>1,2>3,3>2", 1, 3): "5376170a72bf26556e4af588af68a17d3831631b5e720a6811e091b34f6493c5",
    ("1>2,2>1,2>3,3>2", 3, 1): "a78c65ac41d363aa9cc86dd7ebc265d27277aa4274c7c81a76a9f1e345caad62",
    ("1>2,2>1,2>3,3>2", 2, 3): "d505141239e8572900efe7dd3d69f859fd942f4a540b23fd4dc3f60e86925196",
    ("1>2,2>1,2>3,3>2", 3, 2): "52112f1d7b56be9aac962bd7a62f06b2f2e0e455b738f8da634e595bda8e7077",
    ("1>2,2>3,3>1,3>2", 1, 2): "95eeefa93039c2d64e0f477cbb022403517ffb001f928a5b9ac392bb6ddc1979",
    ("1>2,2>3,3>1,3>2", 2, 1): "fea1ca12c9bd45a834568e6d6bcdcff29f54a3f227531f5ecba1b2ace9764340",
    ("1>2,2>3,3>1,3>2", 1, 3): "452cd462248ffe2f9c3e007030e57053cd5baf73ca36a8e6a47d9349c83bd5f5",
    ("1>2,2>3,3>1,3>2", 3, 1): "589228ae522660f2e8d902a6273f54d8ddd327f17e766c050d6c1997a928b112",
    ("1>2,2>3,3>1,3>2", 2, 3): "1d279a534c0e5a75e806c07477be18fb8af2d7e5f951ff971c99d98f0ad74f42",
    ("1>2,2>3,3>1,3>2", 3, 2): "96a405de84e4b4ade4a599d99b9a207bb0b8e7e86fb13d6e43a1fe7169ce88f9",
    ("1>3,2>1,2>3,3>2", 1, 2): "89623fd78a4428339b0896a440754fa1a0bdc801b894661d1fa961848e434fe0",
    ("1>3,2>1,2>3,3>2", 2, 1): "4af6f966c5b549e3906c5423845b33441c3be8f7825e79ec2ca034ceef2e4033",
    ("1>3,2>1,2>3,3>2", 1, 3): "bcc6492191501441b4ac5fff36e26bbbfcdca6b21d11ee436e21874a97385836",
    ("1>3,2>1,2>3,3>2", 3, 1): "d57f7abefa6ec2f526428e7b52ec6f2f9077f11a4b3a316a0d5bb4114276e573",
    ("1>3,2>1,2>3,3>2", 2, 3): "9d7a34d2a3c380e49e3c50e654f1173c3202b9620f1649f0feb11f91b577e440",
    ("1>3,2>1,2>3,3>2", 3, 2): "85fb7ad5bc9b34a45ade3eaee7147fa7eee67b93f2ac05e14f099cd2555b4cf8",
    ("1>3,2>1,3>1,3>2", 1, 2): "7b5210c4a2b6108550a74297f15621a5c46fbbffed6c32af7b46d4737562e665",
    ("1>3,2>1,3>1,3>2", 2, 1): "a1d754544b3d6eced03ceb838f51decfb4ab674ef56b32a2c0788782a2304b66",
    ("1>3,2>1,3>1,3>2", 1, 3): "6087f60e1e3cf56d31b39e0b423c67f0cc214011a800ccff67281b3f3973f0dd",
    ("1>3,2>1,3>1,3>2", 3, 1): "6ea19e73a140b614f08aa411529522d293540b0b6e42e248b10a1666865c805e",
    ("1>3,2>1,3>1,3>2", 2, 3): "48172fd97e0c2263851706700e67a29c27dfe319aca53e2c307c8cae2514c870",
    ("1>3,2>1,3>1,3>2", 3, 2): "8f6caf3817ed41dc3b5ef2693092bfb31fff45caea4ef477c83548e3150f69bc",
    ("1>3,2>3,3>1,3>2", 1, 2): "760dd7ea1fad7ea81df4593958c407ab0866380f228d8818599b4013fcf7cbe7",
    ("1>3,2>3,3>1,3>2", 2, 1): "bf4c224670c0f7f9628efa70efc6bdff107b759c86b8871a3391e3e048899f2c",
    ("1>3,2>3,3>1,3>2", 1, 3): "470080a099e32c4dec68e71b1011e913bec0b06b0beb2f3a7d07dbc9e0ec91c9",
    ("1>3,2>3,3>1,3>2", 3, 1): "8dadf5093a874c14cf9864479c11b6f7455ecfdede3a7de4d193273a39bb8a48",
    ("1>3,2>3,3>1,3>2", 2, 3): "c97118ce4f4f928b9edcb84f79bb256313d1ba12fe68887dd366bcb47586da7e",
    ("1>3,2>3,3>1,3>2", 3, 2): "42bd6080e7838cc156fdf26258ac7a4510df7e3a5babfbc08c25296cedbf6a09",
    ("1>2,1>3,2>1,2>3,3>1", 1, 2): "ce68706a277c6097a91c0749a90fc14c67585ed486fa1d250fee417715363897",
    ("1>2,1>3,2>1,2>3,3>1", 2, 1): "797ca002b496b77fde969ff487f151a479ae219b1ec80b028de4d68cc89d3b33",
    ("1>2,1>3,2>1,2>3,3>1", 1, 3): "2b4d4a4b7979aa5a417fd79fe8c074e773d383c0d232b251e066ecf424447a65",
    ("1>2,1>3,2>1,2>3,3>1", 3, 1): "44e58bb6002a4851bde73e96d6055e863f45f0ff4020257fcce9c6992aa160bc",
    ("1>2,1>3,2>1,2>3,3>1", 2, 3): "24110d75d5240ba0962712db4938ea88743771f31c0afc0c92341802e9420f9f",
    ("1>2,1>3,2>1,2>3,3>1", 3, 2): "5326b02db4daf8683c3cee1a7df273f04a23d3aa8024c01029c8e26a0ac2b915",
    ("1>2,1>3,2>1,2>3,3>2", 1, 2): "ac2f006530cc9710f59865e2c75075eab793f765d888603bc823067d3d976743",
    ("1>2,1>3,2>1,2>3,3>2", 2, 1): "4f48b287c327a0992a73a0de00b7518ca49bc3232fef842ca79d1ece9a7fbc6c",
    ("1>2,1>3,2>1,2>3,3>2", 1, 3): "7dc43d4076c042bd97dd1050e3c2625bc57eb396ccbdb0aecdeda995640398c1",
    ("1>2,1>3,2>1,2>3,3>2", 3, 1): "aeea8886203eaa0600d5a4d4b7d92685f8a6ad80d033e60abc4992d1d347f63f",
    ("1>2,1>3,2>1,2>3,3>2", 2, 3): "dcc073297b5b149f3a25200ee66d94b6ea78174d4a2cb4f3c401fd7bf1f87611",
    ("1>2,1>3,2>1,2>3,3>2", 3, 2): "c55192a132c4f9c027a122c76b93fc3024308c0f10c28a31099af1eddbac60f8",
    ("1>2,1>3,2>1,3>1,3>2", 1, 2): "6dddb3825ffd7ef0789b87cbe59e0108d956b931e277c0c015353b424269f7b4",
    ("1>2,1>3,2>1,3>1,3>2", 2, 1): "7cdaf9fdc2cc3b14ab5e79193c1ce5618713ab9a7bc85822d3dd08d62220c142",
    ("1>2,1>3,2>1,3>1,3>2", 1, 3): "34c689d919ae9ae970adeb39c3b2a72735307a94998f85f45af8791aa8baf302",
    ("1>2,1>3,2>1,3>1,3>2", 3, 1): "98635e6d47724f2e084965aad281bca110482c787e3b7141296a37dd76db5e29",
    ("1>2,1>3,2>1,3>1,3>2", 2, 3): "bb709184b441e760ad82fa81af44d4f63a252b842d5e4ea247712e090313a7b1",
    ("1>2,1>3,2>1,3>1,3>2", 3, 2): "c1ac43733383a4be58d73bf23d0257e56a06ffebb7206d10da6f64e97e6ea75f",
    ("1>2,1>3,2>3,3>1,3>2", 1, 2): "369b47f7a725dbef93ba0f7fd9e200801488f2352569641d3c4be230fcae4ef8",
    ("1>2,1>3,2>3,3>1,3>2", 2, 1): "379de64cd9b1f3ad266d0b1f63f6cd828c951525fd4f19e49ca78a2a19816780",
    ("1>2,1>3,2>3,3>1,3>2", 1, 3): "a4ad6282d8579c6387eda577a81f4f815c11a129919360674d00cb8a92c90a1a",
    ("1>2,1>3,2>3,3>1,3>2", 3, 1): "1df5407d6af06f9ffaf519a5a473103b66f4f269b928a694682c28d45a51a54d",
    ("1>2,1>3,2>3,3>1,3>2", 2, 3): "0971d86774b47bf47abff4b58481151b2eb63cce55b9cfb6c81f440626b60d64",
    ("1>2,1>3,2>3,3>1,3>2", 3, 2): "24b0a60643cdc82be8a8768d8a932f343c2254af183e4fd285588c4ef1e73532",
    ("1>2,2>1,2>3,3>1,3>2", 1, 2): "03829be64f98fd7e357fec0c79b6d75ca1fb27b80a17e19d3c475986e414a162",
    ("1>2,2>1,2>3,3>1,3>2", 2, 1): "ef517a59d789f1829fe8c9498c28db582b4d5591bcfad388f04d3dec1bc79222",
    ("1>2,2>1,2>3,3>1,3>2", 1, 3): "6c8c34c602ccde3668ea7687ad98dedd13736eeb415127a18222af62883806dc",
    ("1>2,2>1,2>3,3>1,3>2", 3, 1): "822aaac7c4de54f373098605fb5c481e70ed325677f3a1506a4e28b5554f2089",
    ("1>2,2>1,2>3,3>1,3>2", 2, 3): "f942ca7f3beb608cc8ecc610e33693fef862618a708870181257835826f86623",
    ("1>2,2>1,2>3,3>1,3>2", 3, 2): "814d796e4e33b290c8c330e3338d758cb31d3ed37e6b6298015a3d5d037868ad",
    ("1>3,2>1,2>3,3>1,3>2", 1, 2): "d6baaf5ed7b4129e427856f37e1228724b6fa1dc3f7f3542ca6bbc1e934b78b6",
    ("1>3,2>1,2>3,3>1,3>2", 2, 1): "be0e7887ac5f0a5c33de3a8c5b1dba9f7c955c6505ad8b11f6107c9b7de33b7d",
    ("1>3,2>1,2>3,3>1,3>2", 1, 3): "265ddff300960fe072b21f16421b0bd0ee3f36566ae013b66dac39bbbe526e50",
    ("1>3,2>1,2>3,3>1,3>2", 3, 1): "329b4b31e2fe26d1e9c27bad6cb340e3d12c76d27c6f8cb7dfebc7d2eec827ac",
    ("1>3,2>1,2>3,3>1,3>2", 2, 3): "009be919670890da5503f5ea25068a8d42c62eb808f9127b020e6d1b5984bc67",
    ("1>3,2>1,2>3,3>1,3>2", 3, 2): "d57f709c5f8da5fbbe9c05981206f500860f57cf156f0563b5284122ef72e94c",
    ("1>2,1>3,2>1,2>3,3>1,3>2", 1, 2): "506c24f251d0340fe9023ca27821243bd633ca15968b1d1b3a3520e23cbfcc22",
    ("1>2,1>3,2>1,2>3,3>1,3>2", 2, 1): "38b990ca535e477b120c9112e19d38c36a7b23329b380efebb83ce09984ed3ff",
    ("1>2,1>3,2>1,2>3,3>1,3>2", 1, 3): "3362f29784014341fc97f97f1025bde4e190f6c1869b5e654b472dbab4c8b46d",
    ("1>2,1>3,2>1,2>3,3>1,3>2", 3, 1): "905e5e37518301e5135cf44ceafc4c6788f3cd99e7f43bc1bdd0900656a602d5",
    ("1>2,1>3,2>1,2>3,3>1,3>2", 2, 3): "53c58cd2482ecdf4bb5fb3a48a33eedf03bab39d2bb66764abb9065a1ef37632",
    ("1>2,1>3,2>1,2>3,3>1,3>2", 3, 2): "cb26092c6ed228108a463013ce7eace46c0caee7a32d35bf8ab0baccc50dca8d",
}

VERIFY_GRAPHS_N5_CSV_DIGEST = "9ae37d8d78f5eedbfa02a598d930a07775eddffc43a5a16f620a6cf2f29877c7"

RELAXED_N_MAX = 6

#: `solve --solver bfs --model relaxed --distance C`, n = 0..6, keyed (C, src, tgt)
RELAXED_DIGESTS = {
    (1, 1, 2): "a0f84df7a53e2aea6af5a6e3de92763aa67a7f1fd8cb6f74094a2d06614f6a65",
    (1, 2, 1): "812881ae8266986d16db52f6f061e5e0c4dab307ff31f97f7542fe82c4498649",
    (1, 1, 3): "8e0ddb956965af5c3c1141baf8282aa5113aa5b486e4bd244487ea46ff7774cd",
    (1, 3, 1): "ed400e6b0ffd3ac2656cee41c35bb678832056558ac6a4721162f9b15687bb24",
    (1, 2, 3): "c3a8e37737e7ba208a4cc2a6a1bc8233005d39901f9e09502ad6904924ca7931",
    (1, 3, 2): "3130567dc70357b671e62e636d4eb37e1dff739e57f8f2a911bc05524a4a94cc",
    (2, 1, 2): "70d5a468d8a0550fe18efff367c0631b69e6396a73a1ecdc08fdbe45b0b1c4a8",
    (2, 2, 1): "1bf5bdddc6518846f3d53776eadfcd5a41128249e36f4efbe9ee7192fbc2356e",
    (2, 1, 3): "896deb8ef5d98fe4101b6097796b13cd16deea90c50df9a47ca38e7ead6064f0",
    (2, 3, 1): "5e44faed7439375010c84bd041e828524621b0d063c221b17e77d20ee7bb5d9f",
    (2, 2, 3): "f864700c52974119bcb78d57813daa6c45da4bfe8428f423238c0c4e6d376c07",
    (2, 3, 2): "ecdedc9777ef3fcd011d4f14bb46cd89140982e37a51edef404be01a8a67c70f",
    (3, 1, 2): "0e272637af405187d3589cf0989cfec71415383775f4f8d2416e172cb2a8c2cf",
    (3, 2, 1): "3fe70c62410c7fec023ba5e4dbf576e4943e4e3cefd4e4dfd597ce230dccd2a4",
    (3, 1, 3): "47c30f03a98951712938c6ff5ed4f348d69836cb7dfcb3a756895fce903aac0f",
    (3, 3, 1): "9e28cd2b44d33dd5509ba92adafc3d5458ffe45ded16059b3365436b3eeaffd5",
    (3, 2, 3): "81d56f089275448372a97769ba07e21609ad644845ee05524cce623710a785d8",
    (3, 3, 2): "a35aaf5a12ac9ba486ea2241958e7abd96bc5893533182aa3d9def0bcd2f6824",
}

CUSTOM_N_MAX = 5

#: `solve --model custom --distance 1` (bfs by default), n = 0..5,
#: keyed (edges, src, tgt) on the linear, cycle and cycle-chord graphs
CUSTOM_DIGESTS = {
    ("1>2,2>1,1>3,3>1", 1, 2): "68f175794a14441d4159e2ad029fad994c766316078e0457abfe8bdae393460c",
    ("1>2,2>1,1>3,3>1", 2, 1): "935514794a9a20919c73d93fc01a269914bb2b579a8d62afcf70a54fd653122c",
    ("1>2,2>1,1>3,3>1", 1, 3): "23d2c84bf254749f947122693840410d76b5cf3b4585e10afc0d0117aaddf7fc",
    ("1>2,2>1,1>3,3>1", 3, 1): "ea645aabb9dca8bafd8c91643e10d11750975049a384c364105173ff19e855d8",
    ("1>2,2>1,1>3,3>1", 2, 3): "d9a4e97599cdc19167b32262ee3169f5067a9c2f138d291a7806dcc426a30c72",
    ("1>2,2>1,1>3,3>1", 3, 2): "f44bfc5135231497253fb89f7ce106805f1f273f2b772cb7f6f7dff3fbe83db2",
    ("1>2,2>3,3>1", 1, 2): "109fe4f3cd83c61d0c112f6f6b4f131323e01e01a724117c64bb000f59911e03",
    ("1>2,2>3,3>1", 2, 1): "50fa6704189bfc75b5cdcc52150b99c7eef3085fb4495a0222f6e87e662f1051",
    ("1>2,2>3,3>1", 1, 3): "48de7d253027d35edd285829fc49cfbca2dbf7cf606c6cd4a032ab73f7400631",
    ("1>2,2>3,3>1", 3, 1): "517fdf9752a39cd1f626a1bdbbcfd7ef404ce80dd775cf7e17156992bd39ebe7",
    ("1>2,2>3,3>1", 2, 3): "c4f7b840f871dd5a249fa2c50e2a38d53ca243f1ffccb799ef40d89f3c5a1813",
    ("1>2,2>3,3>1", 3, 2): "e3fd6667aa433898549d5f7c6e79877e81600485042dc05d9ecd57c1c6e72e80",
    ("1>2,1>3,3>1,2>3", 1, 2): "440565ae13811c9ab5cb746d13aa1e14b23c13c3a17e320326793ec857d486e7",
    ("1>2,1>3,3>1,2>3", 2, 1): "18b70d3abfa765d1963b817223c08822aa80be16922aefca5b9d98b83c07a478",
    ("1>2,1>3,3>1,2>3", 1, 3): "91847919f85fdafbcf48152248dcad903c9f15a00b04cb177894e97f531f95e2",
    ("1>2,1>3,3>1,2>3", 3, 1): "517fdf9752a39cd1f626a1bdbbcfd7ef404ce80dd775cf7e17156992bd39ebe7",
    ("1>2,1>3,3>1,2>3", 2, 3): "712c1e31b130cf78b4ac6eb8185e284ed96fb11ff73895100aa0970612a71c0d",
    ("1>2,1>3,3>1,2>3", 3, 2): "b378874142df1a97700949fd5fa939ba561d85b7a54231b34179ff99eae8cb87",
}

#: whole-command digests
COMMAND_DIGESTS = {
    "conjecture --distance 1 --n-max 6": "e40ae8fe552ba14efc3cb8951b72ceaa8cfce7d0b95c1c81e886b4967fcd6a5a",
    "conjecture --distance 2 --n-max 6": "78c11b81e542b27a72e0628d98e818e656a343f1282f3d74cb72bb1f8651efe9",
    "conjecture --distance 3 --n-max 6": "5b645b13424c62bec94d3d9b14efae3c5a7f667e3000f92acebe9be047a4c8cc",
    "verify --suite claims --n 6": "a8f8aab5214696721fe3efb4f6c9bc2eec95b48b3836af1727b193501cce0be7",
    "verify --suite relaxed": "95188f018ff0c181fe0b71386c5951493a37ef9a50401c87991c6668ef18e211",
    "conjecture --distance 2 --n-max 6 --format json": "c104484b4645c957acb4e929cd1212c1a9a8b82720a0ab86341003ddaea8fdf1",
    "conjecture --distance 2 --n-max 6 --format plain": "e1d0d139f05de13caa81aee69322f2b8f07e377088fc26b5b14bd04c08fbadcd",
    "graphs enumerate --format plain": "b86306b207eae4e603fff08b9b19faf88e9e4ebcb2fb796938a2b3109fb48a0c",
    "graphs enumerate --format csv": "fc6728a096a77bbb235e6d2bd1092594030908c0962ea371d44162c2248b90df",
    "graphs enumerate --format json": "aa04fa14f26896f79790fe06a5466ea5d70926d76830aabd46d213335d076286",
    "verify --suite graphs --n 3 --format plain": "464cc537d343044c7b3f59042dc0370221d69b54a8391dbfbce9526b7528ab85",
    "verify --suite graphs --n 3 --format json": "9134e15cd69b121d32619506ea75b015c868454b976c304c5cd6ca9c252cc71d",
    "verify --suite claims --n 4 --format csv": "1b110b533aa05b89e26bf14509b0defad7faa59b235c38c7cecfb66b56ca6e89",
    "verify --suite claims --n 4 --format json": "c0f034b57f247d8d01740362ee983e37257d603c7bae72fc3af96b33843a63da",
    # one graph per class; all but the five-edge one have a closed-form check
    "table --model digraph --edges 1>2,2>3,3>1 --n 8 --format plain": "b6aec65a1390072bbd4ce01b450df9773cadaf8349f006260ce2011eb75f5bc7",
    "table --model digraph --edges 1>2,2>3,3>1 --n 8 --format csv": "a64bfaf5a6c6595d7a350aa45cfa9de62c650c57c662b40ed24814a110bfc398",
    "table --model digraph --edges 1>2,2>3,3>1 --n 8 --format json": "daa0805ab6f7cf505cd98af08c947d31eaccf1fa7d84df1e1c0240af38b3f659",
    "table --model digraph --edges 1>2,1>3,2>1,3>1 --n 8 --format plain": "c2d481fb2fcf3fb6c08e55e7bc64d21d9cc3af2cc8550fb2e55af88507f54070",
    "table --model digraph --edges 1>2,1>3,2>1,3>1 --n 8 --format csv": "009c55aff20fcb2cdbb240cf968de146ca7afe2080d5ebf313f356d618048b3b",
    "table --model digraph --edges 1>2,1>3,2>1,3>1 --n 8 --format json": "78c72cfe57c1f737797a03575aa1d308a1ab68da0d1c2de3c7722d287f1d2ede",
    "table --model digraph --edges 1>2,1>3,2>3,3>1 --n 8 --format plain": "4bbb69d39611119bf2026858476ad0748d8d037e3b12a43076f6fd75937f8f4b",
    "table --model digraph --edges 1>2,1>3,2>3,3>1 --n 8 --format csv": "04c7c493c632736b797fc7f21caa8770042cfb0b2b2b4cbf77d2758077faacaa",
    "table --model digraph --edges 1>2,1>3,2>3,3>1 --n 8 --format json": "0320ac9adccb70e05d0277d45c3f4e99571d0614a10dd7c6308c0d8a02727f03",
    "table --model digraph --edges 1>2,1>3,2>3,3>1,3>2 --n 8 --format plain": "325a1455a17e924bcddc8d6b1bdefb7b77a4a440ac47ccae25ceefed8d013877",
    "table --model digraph --edges 1>2,1>3,2>3,3>1,3>2 --n 8 --format csv": "325a1455a17e924bcddc8d6b1bdefb7b77a4a440ac47ccae25ceefed8d013877",
    "table --model digraph --edges 1>2,1>3,2>3,3>1,3>2 --n 8 --format json": "51d132a93d987a4de8450fd47d8bc859c69fe2f01d99f019373f9059d01aef86",
    "table --model digraph --edges 1>2,1>3,2>1,2>3,3>1,3>2 --n 8 --format plain": "b052f892fbc80148598928822bdc9ebee6bbbc2d50c35627cd79478194bbc0e8",
    "table --model digraph --edges 1>2,1>3,2>1,2>3,3>1,3>2 --n 8 --format csv": "7ea25eb940df0689a0bbac4182b62c72bf5274d98ebe638b4f8784f17d957b83",
    "table --model digraph --edges 1>2,1>3,2>1,2>3,3>1,3>2 --n 8 --format json": "a93a408f6ba14c8e8306aa318b4b768f3a0186af9644d345ff316b224f550005",
}

#: the ten commands of the `emit-exact` benchmark workload with the
#: identity peg labelling: the largest constructive sequences, and closed-form
#: checks and tables at n = 90..2000
EMIT_EXACT_DIGESTS = {
    "solve --model classical --n 17 --from 1 --to 3": "f81a3c1add42d86b5a898ba49c136ce37a4b36e6a07483c62fcea8353c6479d5",
    "solve --model digraph --n 10 --from 1 --to 2 --edges 1>2,2>3,3>1 --format csv": "32df6de12bb4e920eadcdb762b21477f55fbd019b7f8dbf38c5ae11dc8dce50f",
    "solve --model relaxed --n 26 --from 1 --to 2 --distance 1 --format json": "39680e4d7938101ea593920ff655c13a6c83dc5e6ae6f47467c964cbca17489f",
    "solve --model relaxed --n 38 --from 1 --to 2 --distance 2 --solver q": "60695fbf90d813c5528ae05a91f8b385442383a6c3c4fb428c1f81c00fd39c99",
    "solve --model relaxed --n 26 --from 1 --to 2 --distance 1 --solver zeta": "568c0f9c8e079468f86bf170fc94b0792fd9e30ea1d5f1efe5395de535ad0c06",
    "table --model digraph --edges 1>2,2>3,3>1 --n 90": "54bb3683868862f80325c1aed684f0ff4f6b46491ac18ed91c32e132462ac04f",
    "table --model digraph --edges 1>2,1>3,3>1,2>3 --n 90": "dbf7bb4fd228e712bd09620aafffaaccd5267a2861bb7ca31bcd26bf7ad9974e",
    "table --model digraph --edges 1>2,2>1,1>3,3>1 --n 400 --format json": "9d2dea4de0a3cebd23da2d97527ffb4cea1f1b0e4aca3df9afa1ad083f23879d",
    "table --model digraph --edges 1>2,1>3,2>3,3>1,3>2 --n 2000": "fcc58382dced32339729cd71987cd12f1e0d9852e72f723e568c15adfdedca06",
    "graphs enumerate --format json": "aa04fa14f26896f79790fe06a5466ea5d70926d76830aabd46d213335d076286",
}

CONSTRUCTIVE_N_MAX = 6

#: constructive solvers, n = 0..6 over every ordered pair, keyed (solver,
#: format); the relaxed solvers run at distances 1..3 in turn
CONSTRUCTIVE_DIGESTS = {
    ("classical", "plain"): "193d204a5475d8744693ab8c5a791dc2d04594aeaf00c0ccc5d281c55ec429c7",
    ("classical", "csv"): "e472634357dc60dec82d7294b2ec32cec984392b200474d3626cb8f04d6a31d2",
    ("classical", "json"): "c4c8b30a478cd31ab35cc048ee16e4f646691cb82164d11bd02a7c057c308e77",
    ("directed", "plain"): "7a9988a2a31356b51499b1c7dce00f6f341bbad5f649d5a1da8733d761ab08a1",
    ("directed", "csv"): "97bd8fb703bdff1e3590511a6f73cce9776e6efb83a335787de5ef0408fc6f0a",
    ("directed", "json"): "6be522b5ee136179da290da40a14463f6b339fddf4bd12b183a394550c1c28d9",
    ("zeta", "plain"): "a4c2e735a11f8843021ee4a2c35662d778c79a55f83ba2d6f6a57e9cf85debb0",
    ("zeta", "csv"): "6f8fce40c4463d7586261747e0b2523ed06095968bf358aa4be9df9469abb1c8",
    ("zeta", "json"): "952ace05052ae066a61bf7eb8943309a3c087f431ce7f5032a6f94ba29cc896d",
    ("symmetric", "plain"): "f1ac808b9f5a4416fb8c02d127b4262b4c89acffb902faf690f577f75dcf3ac8",
    ("symmetric", "csv"): "7fca1ca7baebc6f0c8e7182de88cd7d0fd365c00eea3c96a6f5bce5cc82b8233",
    ("symmetric", "json"): "9a84194693cb1dacfadcbe53af2a8e1c4701335b2b0565d280c4fece68b69dbc",
    ("q", "plain"): "cc868989ae92be8922275995a79533aba111fe1e21659f6cea37e5ecd6be934d",
    ("q", "csv"): "82322b5e3100c71e9bd33a45fb53f6b61740a5556a61bbee4e98a5550d2f868f",
    ("q", "json"): "b1a2099b0939de8b921b020ff05409ca0fa2256ee58b5b2641f0fc9b16a56824",
}


def _stdout(capsys, argv):
    assert run(argv) == 0
    return capsys.readouterr().out


def test_digest_table_covers_every_graph_and_pair():
    expected = {
        (g.format(), src, tgt)
        for g in all_strongly_connected_graphs()
        for src, tgt in PAIR_ORDER
    }
    assert set(SOLVE_DIGESTS) == expected
    assert len(expected) == 18 * 6


@pytest.mark.parametrize(
    "edges", [g.format() for g in all_strongly_connected_graphs()]
)
def test_solve_bfs_stdout_is_byte_identical(capsys, edges):
    for src, tgt in PAIR_ORDER:
        digest = hashlib.sha256()
        for n in range(SOLVE_N_MAX + 1):
            argv = [
                "solve", "--solver", "bfs", "--model", "digraph", "--edges", edges,
                "--from", str(src), "--to", str(tgt), "--n", str(n),
            ]
            digest.update(_stdout(capsys, argv).encode())
        assert digest.hexdigest() == SOLVE_DIGESTS[(edges, src, tgt)], (src, tgt)


def test_verify_graphs_csv_is_byte_identical(capsys):
    out = _stdout(capsys, ["verify", "--suite", "graphs", "--n", "5", "--format", "csv"])
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_GRAPHS_N5_CSV_DIGEST


#: `verify --suite graphs --n 8` per format, recorded while each disc count
#: still ran its own searches
VERIFY_GRAPHS_N8_DIGESTS = {
    "plain": "6b15fdbe795560fbf2e2060cb109f8f2a8d0c7b00cd2e9c3109ac132bb01833e",
    "csv": "27bb6889b1c5884548ca438b172c2728dd4f0349a2aa7a9ba423921a2ca4cdcb",
    "json": "0367cd0069f83c92c3bbc800e468c9c388718fb992bacadf7d4f206ca9bb1274",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_GRAPHS_N8_DIGESTS))
def test_verify_graphs_n8_is_byte_identical(capsys, fmt):
    out = _stdout(capsys, ["verify", "--suite", "graphs", "--n", "8", "--format", fmt])
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_GRAPHS_N8_DIGESTS[fmt]


def test_verify_graphs_cap_error_is_unchanged(capsys):
    # the first n = 7 search indexes its visited map by code, a 2,187 B
    # bytearray under the 85,000 B a dict of 1,000 states would take, and
    # hits the cap at the same state as it did per disc count
    argv = ["verify", "--suite", "graphs", "--n", "7", "--max-states", "1000"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: resource cap exceeded: search exceeded the state budget of 1000 states"
        " at level 635 (1001 forward and 0 backward states stored)\n"
    )


def _solve_digest(capsys, argv, n_max):
    digest = hashlib.sha256()
    for n in range(n_max + 1):
        digest.update(_stdout(capsys, [*argv, "--n", str(n)]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("distance", [1, 2, 3])
def test_solve_bfs_relaxed_stdout_is_byte_identical(capsys, distance):
    for src, tgt in PAIR_ORDER:
        argv = [
            "solve", "--solver", "bfs", "--model", "relaxed", "--distance", str(distance),
            "--from", str(src), "--to", str(tgt),
        ]
        digest = _solve_digest(capsys, argv, RELAXED_N_MAX)
        assert digest == RELAXED_DIGESTS[(distance, src, tgt)], (src, tgt)


@pytest.mark.parametrize("edges", sorted({key[0] for key in CUSTOM_DIGESTS}))
def test_solve_custom_stdout_is_byte_identical(capsys, edges):
    for src, tgt in PAIR_ORDER:
        argv = [
            "solve", "--model", "custom", "--edges", edges, "--distance", "1",
            "--from", str(src), "--to", str(tgt),
        ]
        digest = _solve_digest(capsys, argv, CUSTOM_N_MAX)
        assert digest == CUSTOM_DIGESTS[(edges, src, tgt)], (src, tgt)


@pytest.mark.parametrize("command", sorted(COMMAND_DIGESTS))
def test_relaxed_command_stdout_is_byte_identical(capsys, command):
    out = _stdout(capsys, command.split())
    assert hashlib.sha256(out.encode()).hexdigest() == COMMAND_DIGESTS[command]


def _constructive_models(solver):
    if solver == "classical":
        return [["--model", "classical"]]
    if solver == "directed":
        return [["--model", "digraph", "--edges", "1>2,2>3,3>1"]]
    return [["--model", "relaxed", "--distance", str(c)] for c in (1, 2, 3)]


@pytest.mark.parametrize("solver, fmt", sorted(CONSTRUCTIVE_DIGESTS))
def test_constructive_solve_stdout_is_byte_identical(capsys, solver, fmt):
    digest = hashlib.sha256()
    for model in _constructive_models(solver):
        for src, tgt in PAIR_ORDER:
            for n in range(CONSTRUCTIVE_N_MAX + 1):
                argv = [
                    "solve", "--solver", solver, *model, "--format", fmt,
                    "--from", str(src), "--to", str(tgt), "--n", str(n),
                ]
                digest.update(_stdout(capsys, argv).encode())
    assert digest.hexdigest() == CONSTRUCTIVE_DIGESTS[(solver, fmt)]


@pytest.mark.parametrize("command", sorted(EMIT_EXACT_DIGESTS))
def test_emit_exact_stdout_is_byte_identical(capsys, command):
    out = _stdout(capsys, command.split())
    assert hashlib.sha256(out.encode()).hexdigest() == EMIT_EXACT_DIGESTS[command]


# ---------------------------------------------------------------------------
# Failure paths, made by substituting one library call, and the success
# formats pinned nowhere above.  Recorded before CSV and JSON output moved
# behind two shared writers in `cli`.

#: (substitute, command) -> digest; "harness" and "graphs" runs exit 1
FAILURE_DIGESTS = {
    ("harness", "verify --suite relaxed --format plain"): "86d1a400a8258e94ef9011d6f6de9a0aa07495fc47fa796ac6141d94f35bf272",
    ("harness", "verify --suite relaxed --format csv"): "6bbfec0e7619fecc0ed868ecc72878583fd91398e11238b3eefad0516eb644ca",
    ("harness", "verify --suite relaxed --format json"): "d5cbc5616683d37bd58d25caa4ba3213ef44b5c76a759d698d6da878d3fcbcd8",
    ("graphs", "verify --suite graphs --n 2 --format plain"): "8bc1c9a98266f2c391e2f40dd3a779f913306fb6d216c2ee8da45f90f66ccc43",
    ("graphs", "verify --suite graphs --n 2 --format csv"): "0777451b90c339ef50d0407b38a53c9d7b34a162d0c0ec4a78f517b25168be52",
    ("graphs", "verify --suite graphs --n 2 --format json"): "a5474ea2cd38576f91af24b3c257c3c467ac57b5a313521c3b6b63d2794e93f0",
    ("conjecture", "conjecture --distance 1 --n-max 4 --format plain"): "27ab0a6a3ef30591d9f497eb0122fa83b6ff2bf78518ef314323b4028ffd0b5f",
    ("conjecture", "conjecture --distance 1 --n-max 4 --format csv"): "98212ceb892ce047cc4bdd492120c805c22635f32fe6d6d611ef0218f2c225e7",
    ("conjecture", "conjecture --distance 1 --n-max 4 --format json"): "bc083fb9c04c88c038449d489b10da8c6d8165bcb9db4dfd3542a60ae916ddd6",
}


def _substitute(monkeypatch, which):
    if which == "harness":
        counterexample = {"n": 2, "bfs_std": 3, "expected_a": 4, "bfs_any": 3, "expected_b": 3}

        def claim_harness(name, params=None, *, max_states):
            return verify.HarnessReport(
                name, {"distance": 1, "n_max": 2}, False, (counterexample,)
            )

        monkeypatch.setattr("hanoilab.verify.claim_harness", claim_harness)
    elif which == "graphs":
        real = oracle.optimality_reports

        def optimality_reports(graph, n_max, *, max_states):
            reports = real(graph, n_max, max_states=max_states)
            if graph != CYCLE_GRAPH or n_max < 2:
                return reports
            report = reports[1]  # n = 2
            first = report.checks[0]
            bad = first._replace(algorithm=first.algorithm + 1)
            bad_report = report._replace(checks=(bad, *report.checks[1:]))
            return (*reports[:1], bad_report, *reports[2:])

        monkeypatch.setattr("hanoilab.oracle.optimality_reports", optimality_reports)
    else:
        real = oracle.conjecture_probe

        def conjecture_probe(*args, **kwargs):
            report = real(*args, **kwargs)
            last = report.rows[-1]
            bad = last._replace(a_conj=last.a_conj + 1)
            return report._replace(rows=(*report.rows[:-1], bad))

        monkeypatch.setattr("hanoilab.oracle.conjecture_probe", conjecture_probe)


@pytest.mark.parametrize("which, command", sorted(FAILURE_DIGESTS))
def test_failure_stdout_is_byte_identical(capsys, monkeypatch, which, command):
    _substitute(monkeypatch, which)
    assert run(command.split()) == (0 if which == "conjecture" else 1)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FAILURE_DIGESTS[(which, command)]


#: `verify --suite relaxed` in the formats the plain digest above leaves out
RELAXED_SUITE_DIGESTS = {
    "verify --suite relaxed --format csv": "2d0373c9327895cf9c773552d682b5f2c06ed8e0ad7bd81e7477dee4cf6b72ee",
    "verify --suite relaxed --format json": "8533d8265bdfa972636c13603a8a000ba9a133d8dd6889595f87e4e4aeb754b0",
}


@pytest.mark.parametrize("command", sorted(RELAXED_SUITE_DIGESTS))
def test_relaxed_suite_formats_are_byte_identical(capsys, command):
    out = _stdout(capsys, command.split())
    assert hashlib.sha256(out.encode()).hexdigest() == RELAXED_SUITE_DIGESTS[command]


BFS_FORMAT_N_MAX = 5

#: `solve --solver bfs` in csv and json, n = 0..5 over every ordered pair,
#: on one distance-0 digraph and on the distance-1 relaxed model
BFS_FORMAT_DIGESTS = {
    ("digraph", "csv"): "e2428792c981c0acc80a2ec12a047dfd91a32ca1b1ed1199f9143ec5bbe4133e",
    ("digraph", "json"): "25292bd5e5ae005e8d7efe5a4bbc0a1ddd3a5aa4dd59b8321a8e86a5fd0406e1",
    ("relaxed", "csv"): "eb3c1f54ceb1dab901c346d418f406361731772c8cea891cb0c63110e69af45d",
    ("relaxed", "json"): "048ffc231de95a7020dfef62891e75cb9e634c56c74b0fe71166d081735ede6e",
}

BFS_FORMAT_MODELS = {
    "digraph": ["--model", "digraph", "--edges", "1>2,2>3,3>1"],
    "relaxed": ["--model", "relaxed", "--distance", "1"],
}


@pytest.mark.parametrize("model, fmt", sorted(BFS_FORMAT_DIGESTS))
def test_solve_bfs_formats_are_byte_identical(capsys, model, fmt):
    digest = hashlib.sha256()
    for src, tgt in PAIR_ORDER:
        for n in range(BFS_FORMAT_N_MAX + 1):
            argv = [
                "solve", "--solver", "bfs", *BFS_FORMAT_MODELS[model], "--format", fmt,
                "--from", str(src), "--to", str(tgt), "--n", str(n),
            ]
            digest.update(_stdout(capsys, argv).encode())
    assert digest.hexdigest() == BFS_FORMAT_DIGESTS[(model, fmt)]


#: model flags -> disc counts of the larger witness searches below
LARGE_WITNESS_MODELS = {
    **{
        f"--solver bfs --model digraph --edges {graph.format()}": (8, 9)
        for graph, _ in GRAPH_CLASSES.values()
    },
    "--solver bfs --model relaxed --distance 1": (7, 8),
    "--solver bfs --model relaxed --distance 2": (7, 8),
    "--model custom --edges 1>2,2>1,1>3,3>1 --distance 1": (7, 8),
}

#: `solve` witnesses at the disc counts above, stdout concatenated over
#: them, keyed (model flags, src, tgt); recorded before witnesses were
#: rebuilt from per-state depths instead of stored BFS levels
LARGE_WITNESS_DIGESTS = {
    ("--solver bfs --model digraph --edges 1>2,2>3,3>1", 1, 2): "168008b878394694da7bc4f185d459aa24f1fbeb5c2b6ccf2f38008abafe91f2",
    ("--solver bfs --model digraph --edges 1>2,2>3,3>1", 2, 1): "3bcd3248c53837e8053e35d850f6d800ad327f1f887e86b5934bc09f4391db00",
    ("--solver bfs --model digraph --edges 1>2,2>3,3>1", 1, 3): "8c14cdec4b9da367a95182d2f901c3f9d7e336318af2d2b5fcd9f1efa84b2780",
    ("--solver bfs --model digraph --edges 1>2,2>3,3>1", 3, 1): "07cc667e7fe4832c8f7cbd76651be2a86475be9495f5fd783df236a72120b707",
    ("--solver bfs --model digraph --edges 1>2,2>3,3>1", 2, 3): "b2f82590788cecf63dc3bb83342fede6d9a0b17d068dea3a28f385be8fbf6469",
    ("--solver bfs --model digraph --edges 1>2,2>3,3>1", 3, 2): "6c12a1cb182174f8c5759f02a86300395fefe698f2e8da2dfa10915e96c651e4",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>3,3>1", 1, 2): "4ab115542b77d8fcb1fc504954662f4a5c85e9baf423fc8cb06f82962c19cde6",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>3,3>1", 2, 1): "04272847bf197f88fc0628f8c02789888f6a64dd3d1aaf1151e760e612df45dd",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>3,3>1", 1, 3): "debdff784e20b98ed7cff85a366863fbd49393dab5b6746f134839ba0e61b3b1",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>3,3>1", 3, 1): "eb5794c6bd31eef4174cc5543ca40e428c6a702b78f5fa7b2cc0631fdeb9c91f",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>3,3>1", 2, 3): "b924e503454cd0e8f5e8937a7b902eb2c1625b9903ace0814ddbf18103e9704c",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>3,3>1", 3, 2): "f05b1a26136afaf9f9acee9bc48e5ecf4d0b41cfece8a9d35e32a2b0c6cdbce6",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>1,3>1", 1, 2): "5e0b37529f6aa7863f9f075bb57cc1fe6c8fffdac9ae51f7aa015879f71fea19",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>1,3>1", 2, 1): "ac919e6490cff044fdb1ed0174fe5e97d76b3ff9504bfde233cb41a3802b578a",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>1,3>1", 1, 3): "d7b4dc9da80dc22af82b300bbc2f60818dc70d02b9f1cb4675becaae26474413",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>1,3>1", 3, 1): "d8ba87dcb6359d2fa70e0f931ec60e90291747867d5bd33c3e6aeae82a0ebf08",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>1,3>1", 2, 3): "129ba2f13c186f97054d3f23d9bc693756c22c38dfd5bd46a09ec4797fe42bb1",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>1,3>1", 3, 2): "53dd179f983846bc55845defd5c91cf548b2c7f131985df617b4fdb5a8cae239",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>3,3>1,3>2", 1, 2): "f010bd99d6406541c72360c887608ff477eb6f397b68b9bf111aa9f3163793aa",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>3,3>1,3>2", 2, 1): "cc66268535d4b597a9a5a3e8e6e226d8c233c527074fbe0f954d450265c9358e",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>3,3>1,3>2", 1, 3): "e88d71af3c56b5c850105739b287c96d9bbe6081460d0bba60ead97cde397cbb",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>3,3>1,3>2", 3, 1): "c6edb64c18969613b29996977975b04a296747d66b1a35b0a5d973a1579a2eeb",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>3,3>1,3>2", 2, 3): "50e9fb76c001e84e7de2bfd0d6f5044bad31a2a5237ef4209e3b38de9f29f013",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>3,3>1,3>2", 3, 2): "550a242d645d5fca2cde3d53b9832104cbbd2d8d01d765bf2f8dde81bc7d8787",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>1,2>3,3>1,3>2", 1, 2): "52cdee1aa78001c56e7d388cad26eef5fb62df330beea3f8f7664b7f15b5cc76",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>1,2>3,3>1,3>2", 2, 1): "b633b28ff32b07e8a22a065543c6bcaebf88a5bf70727308f0eba0efe51954a2",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>1,2>3,3>1,3>2", 1, 3): "8eb016dbac16f2fc8c9928aa577b982da193d62d3afaef4b3da09f7a57233e31",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>1,2>3,3>1,3>2", 3, 1): "a1ba36d0ebb2566f44661e3c9881322332086ab3899e3180e5438626220c08dd",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>1,2>3,3>1,3>2", 2, 3): "2b77ebd921107382ea936572a82be8259ac56359723ba733a35fe19ace7acd11",
    ("--solver bfs --model digraph --edges 1>2,1>3,2>1,2>3,3>1,3>2", 3, 2): "45cf3b8ae15b4d02d381cba8923608817a14cfc8d5394f86e880fe9695e8c87f",
    ("--solver bfs --model relaxed --distance 1", 1, 2): "d1414940b07cbe7ea73907bbd931fa299204dba2c4c332334a5e6adb0bb4db18",
    ("--solver bfs --model relaxed --distance 1", 2, 1): "df3f7849787389b4aca21f802b7120f3b7232d99ac91aee016bb68ea19a885c7",
    ("--solver bfs --model relaxed --distance 1", 1, 3): "950e8cea38fb6c9d72d8d423b01a5f152f717b86a7902c1c18d63d4fb3b7a5be",
    ("--solver bfs --model relaxed --distance 1", 3, 1): "37b056f638213e2d1e8d04d5de80719308e1713ead959aac77ab45b87257c97a",
    ("--solver bfs --model relaxed --distance 1", 2, 3): "4cb6666f1c526b9578bdb8366dc1e523d54251ef73be6d78a1be18a0ead86bcb",
    ("--solver bfs --model relaxed --distance 1", 3, 2): "9789a72284e8283dc7f256a1e5d6ba00513960326c8582899598d2ebb12e76ae",
    ("--solver bfs --model relaxed --distance 2", 1, 2): "09ef0bb82298be6341b00caa99456da1a67dee3b88a33ff917f2ebf8ced90ba2",
    ("--solver bfs --model relaxed --distance 2", 2, 1): "3feb06a78cb2ea339485a2a40c5880b8628f55a445c5b3f9c8e1cbfbafebe98f",
    ("--solver bfs --model relaxed --distance 2", 1, 3): "004cb2a0cac35dc378264602d18a5482c6ff866a35b8ae84596958bf09827974",
    ("--solver bfs --model relaxed --distance 2", 3, 1): "9a269b2745e1941fa5fd76e39c59c02a85f3a9ac95f69257f3f090ae469b9555",
    ("--solver bfs --model relaxed --distance 2", 2, 3): "7f8a33bb3e43d1d9576a9aa9ec080c9262be06fc1299b96a7802c917a60e0bed",
    ("--solver bfs --model relaxed --distance 2", 3, 2): "01e20206305f592047b8fda39232b4ea90e924736b58e2a343a69a28438846ff",
    ("--model custom --edges 1>2,2>1,1>3,3>1 --distance 1", 1, 2): "65a85361da3d8fe7aa8522d15e6336e23916c7468bda1c8ac256162742ed2af6",
    ("--model custom --edges 1>2,2>1,1>3,3>1 --distance 1", 2, 1): "e9b7fb116b34c7d2a6c84adcf1990cf09bfd575e5608e6552f45e11bd14774a2",
    ("--model custom --edges 1>2,2>1,1>3,3>1 --distance 1", 1, 3): "9b823063428b85ad77d2f83b443fe2e221c1462e666149bad1e6464b215e0213",
    ("--model custom --edges 1>2,2>1,1>3,3>1 --distance 1", 3, 1): "c2e106acace4352821bfcf9ddf585241470748398d6a885b873b37421d1e45e6",
    ("--model custom --edges 1>2,2>1,1>3,3>1 --distance 1", 2, 3): "5fba6afa4e1d3495e21665ef38c1920dfa55d068099031bf5f393236b0fa80e2",
    ("--model custom --edges 1>2,2>1,1>3,3>1 --distance 1", 3, 2): "ed3e87217a8a0e9f03b8a3f01486c48ef9cc2c6230eeeab105311c6e99046229",
}


def test_large_witness_digests_cover_every_model_and_pair():
    assert set(LARGE_WITNESS_DIGESTS) == {
        (flags, src, tgt) for flags in LARGE_WITNESS_MODELS for src, tgt in PAIR_ORDER
    }


@pytest.mark.parametrize("flags", list(LARGE_WITNESS_MODELS))
def test_large_witness_stdout_is_byte_identical(capsys, flags):
    for src, tgt in PAIR_ORDER:
        digest = hashlib.sha256()
        for n in LARGE_WITNESS_MODELS[flags]:
            argv = ["solve", *flags.split(), "--from", str(src), "--to", str(tgt), "--n", str(n)]
            digest.update(_stdout(capsys, argv).encode())
        assert digest.hexdigest() == LARGE_WITNESS_DIGESTS[(flags, src, tgt)], (src, tgt)
